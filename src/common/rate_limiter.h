#ifndef CHARIOTS_COMMON_RATE_LIMITER_H_
#define CHARIOTS_COMMON_RATE_LIMITER_H_

#include <algorithm>
#include <cstdint>
#include <mutex>

#include "common/clock.h"

namespace chariots {

/// Token-bucket rate limiter: per-link bandwidth caps on the in-process
/// transport, the CORFU sequencer's capacity, and paced bench clients.
///
/// Thread-safe. Tokens accrue continuously at `rate_per_sec` up to
/// `burst` tokens.
class TokenBucket {
 public:
  /// `rate_per_sec`: steady-state token accrual. `burst`: bucket capacity.
  /// A non-positive rate means unlimited (Acquire never blocks).
  TokenBucket(double rate_per_sec, double burst, Clock* clock)
      : rate_(rate_per_sec),
        burst_(burst),
        clock_(clock),
        tokens_(burst),
        last_refill_nanos_(clock->NowNanos()) {}

  /// Blocks until `n` tokens are available, then consumes them.
  void Acquire(double n = 1.0) {
    if (rate_ <= 0) return;
    int64_t wait_nanos = ReserveInternal(n);
    if (wait_nanos > 0) clock_->SleepFor(wait_nanos);
  }

  /// Non-blocking: consumes `n` tokens if available right now; returns
  /// whether it succeeded.
  bool TryAcquire(double n = 1.0) {
    if (rate_ <= 0) return true;
    std::lock_guard<std::mutex> lock(mu_);
    Refill();
    if (tokens_ >= n) {
      tokens_ -= n;
      return true;
    }
    return false;
  }

 private:
  // Consumes n tokens (possibly going negative == a reservation) and returns
  // how long the caller must wait for the balance to be non-negative.
  int64_t ReserveInternal(double n) {
    std::lock_guard<std::mutex> lock(mu_);
    Refill();
    tokens_ -= n;
    if (tokens_ >= 0) return 0;
    double deficit = -tokens_;
    return static_cast<int64_t>(deficit / rate_ * 1e9);
  }

  void Refill() {
    int64_t now = clock_->NowNanos();
    double elapsed_sec = (now - last_refill_nanos_) * 1e-9;
    if (elapsed_sec > 0) {
      tokens_ = std::min(burst_, tokens_ + elapsed_sec * rate_);
      last_refill_nanos_ = now;
    }
  }

  std::mutex mu_;
  const double rate_;
  double burst_;
  Clock* clock_;
  double tokens_;
  int64_t last_refill_nanos_;
};

}  // namespace chariots

#endif  // CHARIOTS_COMMON_RATE_LIMITER_H_
