#include "common/sim.hpp"

#include <stdexcept>

namespace xg::sim {

EventHandle Simulation::ScheduleAt(SimTime when, Callback fn) {
  if (when < now_) when = now_;
  if (next_seq_ >> (64 - kSlotBits) != 0) {
    throw std::length_error("sim::Simulation: event sequence exhausted");
  }
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    if (slots_.size() >> kSlotBits != 0) {
      throw std::length_error("sim::Simulation: too many pending events");
    }
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  ++live_;
  const uint64_t order = next_seq_++ << kSlotBits | slot;
  Push(Key{static_cast<uint64_t>(when.micros())} << 64 | order);
  return EventHandle(slot, s.gen);
}

bool Simulation::Cancel(EventHandle h) {
  // O(1): the key stays in the heap and is discarded when it surfaces.
  if (!h.valid() || h.slot_ >= slots_.size()) return false;
  Slot& s = slots_[h.slot_];
  if (s.gen != h.gen_ || !s.live) return false;
  s.live = false;
  --live_;
  return true;
}

void Simulation::Push(Key k) {
  if (top_spent_) {
    // One sift-down in place of a pop and a push.
    top_spent_ = false;
    SiftDown(k);
    return;
  }
  size_t i = heap_.size();
  heap_.push_back(k);
  while (i > 0) {
    const size_t parent = (i - 1) / 4;
    if (!(k < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

// Puts `k` into the hole at the root and sifts it down.
void Simulation::SiftDown(Key k) {
  const size_t n = heap_.size();
  size_t i = 0;
  for (size_t first = 1; first < n; first = 4 * i + 1) {
    size_t best = first;
    if (first + 4 <= n) {
      // Smallest of four children. Adding the comparisons to the index,
      // rather than selecting with ?:, keeps gcc from emitting a branch
      // that mispredicts half the time.
      const size_t a = first + (heap_[first + 1] < heap_[first]);
      const size_t b = first + 2 + (heap_[first + 3] < heap_[first + 2]);
      best = heap_[b] < heap_[a] ? b : a;
    } else {
      for (size_t c = first + 1; c < n; ++c) {
        if (heap_[c] < heap_[best]) best = c;
      }
    }
    if (!(heap_[best] < k)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

void Simulation::RemoveTop() {
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(last);
}

// Recycles `slot` and hands back its callable.
Simulation::Callback Simulation::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  s.live = false;
  if (++s.gen == 0) s.gen = 1;  // 0 marks an invalid handle
  free_.push_back(slot);
  return std::move(s.fn);
}

bool Simulation::SkipCancelled() {
  if (top_spent_) {
    top_spent_ = false;
    RemoveTop();
  }
  while (!heap_.empty() && !slots_[SlotOf(heap_.front())].live) {
    const uint32_t slot = SlotOf(heap_.front());
    RemoveTop();
    Release(slot);  // destroys the cancelled event's captures
  }
  return !heap_.empty();
}

void Simulation::RunTop() {
  const Key top = heap_.front();
  now_ = SimTime(WhenOf(top));
  --live_;
  ++executed_;
  // Moved out of its slot first: the callback may schedule events, which can
  // reuse the slot or grow slots_. Its key stays at the top, spent: the first
  // event it schedules takes its place, or SkipCancelled removes it.
  Callback fn = Release(SlotOf(top));
  top_spent_ = true;
  fn();
}

bool Simulation::Step() {
  if (!SkipCancelled()) return false;
  RunTop();
  return true;
}

size_t Simulation::Run() {
  size_t n = 0;
  while (Step()) ++n;
  return n;
}

size_t Simulation::RunUntil(SimTime deadline) {
  size_t n = 0;
  while (SkipCancelled() && WhenOf(heap_.front()) <= deadline.micros()) {
    RunTop();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

namespace {
// Self-rescheduling callable: each firing moves itself into the next event.
struct PeriodicTask {
  Simulation* sim;
  SimTime period;
  std::function<bool()> fn;
  void operator()() {
    if (!fn()) return;
    sim->Schedule(period, std::move(*this));
  }
};
}  // namespace

void Periodic(Simulation& sim, SimTime start, SimTime period,
              std::function<bool()> fn) {
  sim.ScheduleAt(start, PeriodicTask{&sim, period, std::move(fn)});
}

}  // namespace xg::sim
