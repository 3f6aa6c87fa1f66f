// Umbrella header + configuration for the deadline-budget SLO layer.
//
// The fabric always owns one of each: a LatencyLedger (per-reading
// budgets, and the aggregate histograms / miss counters exported as
// xg_slo_*) and a FlightRecorder (black-box dumps on contract violations
// and deadline misses, reading the ledger's recent ring). Their bounds are
// named constants in ledger.hpp / flight.hpp; the one setting is the
// switch below. Switched off, the fabric opens no budgets, registers no
// xg_slo_* series, arms no contract trigger and gives the layers no
// flight recorder.
//
// The ledger keys on trace ids, so the whole layer is inert when tracing
// is disabled (every id is 0 and Open/Stamp/Close no-op) — the SLO layer
// never changes what the simulation computes, only what it reports.
#pragma once

#include "obs/slo/budget.hpp"
#include "obs/slo/flight.hpp"
#include "obs/slo/ledger.hpp"

namespace xg::obs::slo {

struct SloConfig {
  /// Master switch; also effectively off when tracing is disabled.
  bool enabled = true;
};

}  // namespace xg::obs::slo
