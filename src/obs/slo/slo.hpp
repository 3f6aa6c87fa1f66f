// Umbrella header + configuration for the deadline-budget SLO layer.
//
// The fabric owns one of each: a LatencyLedger (per-reading budgets), an
// SloTracker (aggregate histograms / miss counters, exported as xg_slo_*)
// and a FlightRecorder (black-box dumps on contract violations and
// deadline misses). SloConfig bundles their knobs into FabricConfig.
//
// The ledger keys on trace ids, so the whole layer is inert when tracing
// is disabled (every id is 0 and Open/Stamp/Close no-op) — the SLO layer
// never changes what the simulation computes, only what it reports.
#pragma once

#include "obs/slo/budget.hpp"
#include "obs/slo/flight.hpp"
#include "obs/slo/ledger.hpp"
#include "obs/slo/tracker.hpp"

namespace xg::obs::slo {

struct SloConfig {
  /// Master switch; also effectively off when tracing is disabled.
  bool enabled = true;
  LedgerConfig ledger;
  FlightConfig flight;
};

}  // namespace xg::obs::slo
