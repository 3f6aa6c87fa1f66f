// Positive compile case for the thread-safety gate: every guarded access
// in this file holds the right capability, so it MUST COMPILE under clang
// with -Wthread-safety -Werror. Paired with tsa_violation.cpp (which must
// fail), the two builds bracket the analysis: clean code passes, an
// unguarded access is a build break — so the CI analyze lane is
// load-bearing in both directions.
//
// The file also exercises the shim vocabulary end to end: scoped locking,
// EXCLUDES contracts and REQUIRES helpers.
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace {

class BoundedCounter {
 public:
  void Add(int amount) XG_EXCLUDES(mu_) {
    xg::MutexLock lk(mu_);
    AddLocked(amount);
  }

  int Read() const XG_EXCLUDES(mu_) {
    xg::MutexLock lk(mu_);
    return value_;
  }

 private:
  void AddLocked(int amount) XG_REQUIRES(mu_) { value_ += amount; }

  mutable xg::Mutex mu_;
  int value_ XG_GUARDED_BY(mu_) = 0;
};

}  // namespace

int TsaCleanProbe() {
  BoundedCounter c;
  c.Add(2);
  return c.Read();
}
