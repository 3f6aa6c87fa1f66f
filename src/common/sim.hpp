// Discrete-event simulation kernel.
//
// All distributed pieces of xGFabric (5G radio frames, CSPOT WAN messaging,
// HPC batch queues, the end-to-end workflow) run on one deterministic
// virtual clock. Time is kept in integer microseconds so event ordering is
// exact and runs are reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace xg::sim {

/// Virtual time in integer microseconds since simulation start.
class SimTime {
 public:
  constexpr SimTime() : us_(0) {}
  constexpr explicit SimTime(int64_t micros) : us_(micros) {}

  static constexpr SimTime Micros(int64_t v) { return SimTime(v); }
  static constexpr SimTime Millis(double v) {
    return SimTime(static_cast<int64_t>(v * 1e3));
  }
  static constexpr SimTime Seconds(double v) {
    return SimTime(static_cast<int64_t>(v * 1e6));
  }
  static constexpr SimTime Minutes(double v) { return Seconds(v * 60.0); }
  static constexpr SimTime Hours(double v) { return Seconds(v * 3600.0); }

  constexpr int64_t micros() const { return us_; }
  constexpr double millis() const { return static_cast<double>(us_) * 1e-3; }
  constexpr double seconds() const { return static_cast<double>(us_) * 1e-6; }
  constexpr double minutes() const { return seconds() / 60.0; }
  constexpr double hours() const { return seconds() / 3600.0; }

  constexpr SimTime operator+(SimTime o) const { return SimTime(us_ + o.us_); }
  constexpr SimTime operator-(SimTime o) const { return SimTime(us_ - o.us_); }
  SimTime& operator+=(SimTime o) {
    us_ += o.us_;
    return *this;
  }
  constexpr auto operator<=>(const SimTime&) const = default;

 private:
  int64_t us_;
};

/// Handle that can cancel a scheduled event: the event's slot in the kernel
/// plus the slot's generation, so a handle outliving its event never
/// matches the slot's next occupant.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return gen_ != 0; }

 private:
  friend class Simulation;
  EventHandle(uint32_t slot, uint32_t gen) : slot_(slot), gen_(gen) {}
  uint32_t slot_ = 0;
  uint32_t gen_ = 0;
};

/// Move-only callable with signature `Sig`, e.g. `InlineFunction<void()>`.
/// A callable of up to kInlineBytes (and no stricter alignment than
/// std::max_align_t) is stored in an inline buffer, so passing it on does
/// not allocate; a larger one is moved to the heap behind a std::unique_ptr
/// kept in that buffer.
template <typename Sig>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  static constexpr size_t kInlineBytes = 48;

  InlineFunction() = default;
  // Implicit, like std::function, so call sites pass lambdas unchanged.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      Emplace<D>(std::forward<F>(f));
      invoke_ = [](void* p, Args... args) -> R {
        return (*static_cast<D*>(p))(std::forward<Args>(args)...);
      };
    } else {
      using Boxed = std::unique_ptr<D>;
      Emplace<Boxed>(std::make_unique<D>(std::forward<F>(f)));
      invoke_ = [](void* p, Args... args) -> R {
        return (**static_cast<Boxed*>(p))(std::forward<Args>(args)...);
      };
    }
  }
  InlineFunction(InlineFunction&& o) noexcept { Take(o); }
  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      Reset();
      Take(o);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }
  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

 private:
  // Trivially copyable callables (most lambdas) move by memcpy and need no
  // destructor, so they leave manage_ null.
  template <typename D, typename A>
  void Emplace(A&& a) {
    ::new (static_cast<void*>(buf_)) D(std::forward<A>(a));
    if constexpr (!std::is_trivially_copyable_v<D>) {
      // Destroys the callable at `self`, first moving it to `dst` if set.
      manage_ = [](void* self, void* dst) {
        D* d = static_cast<D*>(self);
        if (dst != nullptr) ::new (dst) D(std::move(*d));
        d->~D();
      };
    }
  }
  void Take(InlineFunction& o) noexcept {
    if (o.manage_ != nullptr) {
      o.manage_(o.buf_, buf_);
    } else {
      std::memcpy(buf_, o.buf_, kInlineBytes);
    }
    invoke_ = std::exchange(o.invoke_, nullptr);
    manage_ = std::exchange(o.manage_, nullptr);
  }
  void Reset() {
    if (manage_ != nullptr) manage_(buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  // Zeroed so that moving a callable smaller than the buffer copies no
  // indeterminate bytes.
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes] = {};
  R (*invoke_)(void*, Args...) = nullptr;
  void (*manage_)(void* self, void* dst) = nullptr;
};

/// The event kernel's callback: a move-only `void()` with inline storage.
using Callback = InlineFunction<void()>;

/// Deterministic single-threaded event loop.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO tie
/// break via a monotonically increasing sequence number).
class Simulation {
 public:
  using Callback = sim::Callback;

  SimTime Now() const { return now_; }

  /// Schedule `fn` to run `delay` after the current time.
  EventHandle Schedule(SimTime delay, Callback fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute virtual time (clamped to >= Now()).
  EventHandle ScheduleAt(SimTime when, Callback fn);

  /// Cancel a pending event. Returns false if it already ran / was cancelled
  /// (including from inside its own callback). The event's captures are
  /// released when its turn comes, not here.
  bool Cancel(EventHandle h);

  /// Run until the event queue drains. Returns number of events executed.
  size_t Run();

  /// Run events with timestamp <= deadline; clock ends at deadline.
  size_t RunUntil(SimTime deadline);

  /// Execute at most one event. Returns false when the queue is empty.
  bool Step();

  size_t pending() const { return live_; }
  uint64_t executed() const { return executed_; }

 private:
  // Heap key: `when` in the high 64 bits, then the scheduling sequence
  // number, then the slot index. Keys compare as integers in (when, seq)
  // order, the FIFO tie-break; `when` is never negative.
  __extension__ typedef unsigned __int128 Key;
  static constexpr int kSlotBits = 24;
  struct Slot {
    Callback fn;
    uint32_t gen = 1;   // bumped each time the slot is recycled
    bool live = false;  // scheduled, not yet run or cancelled
  };

  static int64_t WhenOf(Key k) { return static_cast<int64_t>(k >> 64); }
  static uint32_t SlotOf(Key k) {
    return static_cast<uint32_t>(k) & ((uint32_t{1} << kSlotBits) - 1);
  }
  void Push(Key k);
  void SiftDown(Key k);
  void RemoveTop();
  Callback Release(uint32_t slot);
  bool SkipCancelled();
  void RunTop();

  SimTime now_{};
  std::vector<Key> heap_;  // 4-ary min-heap; may hold cancelled events
  bool top_spent_ = false;  // heap_.front() has run and awaits removal
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;  // recycled slot indices
  size_t live_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
};

/// Convenience: schedule `fn` every `period` starting at `start`, until it
/// returns false or the simulation stops scheduling.
void Periodic(Simulation& sim, SimTime start, SimTime period,
              std::function<bool()> fn);

}  // namespace xg::sim
