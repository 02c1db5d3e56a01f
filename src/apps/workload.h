#ifndef CHARIOTS_APPS_WORKLOAD_H_
#define CHARIOTS_APPS_WORKLOAD_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace chariots::apps {

/// Key-access distributions for key-value / stream workloads.
enum class KeyDistribution {
  kUniform,   ///< all keys equally likely
  kZipfian,   ///< classic hot-key skew (YCSB-style)
  kLatest,    ///< recent keys most popular (time-series/feed shape)
};

/// Operations a key-value workload can emit.
enum class OpType { kPut, kGet, kDelete, kGetTxn };

struct Op {
  OpType type;
  std::string key;
  std::string value;                  ///< puts only
  std::vector<std::string> txn_keys;  ///< get-txns only
};

/// Configurable synthetic key-value workload generator (the paper's
/// evaluation uses uniform record streams; the application benches use this
/// to exercise realistic key-value shapes).
struct WorkloadOptions {
  uint64_t num_keys = 1000;
  KeyDistribution distribution = KeyDistribution::kZipfian;
  double zipf_theta = 0.99;
  /// Operation mix; must sum to <= 1, the remainder is gets.
  double put_fraction = 0.5;
  double delete_fraction = 0.0;
  double get_txn_fraction = 0.0;
  uint32_t get_txn_keys = 5;
  size_t value_bytes = 100;
  uint64_t seed = 42;
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(WorkloadOptions options)
      : options_(options), rng_(options.seed) {
    if (options_.distribution == KeyDistribution::kZipfian) {
      BuildZipf();
    }
  }

  /// Draws the next operation.
  Op Next() {
    Op op;
    double dice = rng_.NextDouble();
    if (dice < options_.put_fraction) {
      op.type = OpType::kPut;
      op.key = NextKey();
      op.value = rng_.NextString(options_.value_bytes);
    } else if (dice < options_.put_fraction + options_.delete_fraction) {
      op.type = OpType::kDelete;
      op.key = NextKey();
    } else if (dice < options_.put_fraction + options_.delete_fraction +
                          options_.get_txn_fraction) {
      op.type = OpType::kGetTxn;
      for (uint32_t i = 0; i < options_.get_txn_keys; ++i) {
        op.txn_keys.push_back(NextKey());
      }
    } else {
      op.type = OpType::kGet;
      op.key = NextKey();
    }
    ++ops_generated_;
    return op;
  }

  /// Draws a key index per the configured distribution.
  uint64_t NextKeyIndex() {
    switch (options_.distribution) {
      case KeyDistribution::kUniform:
        return rng_.Uniform(options_.num_keys);
      case KeyDistribution::kZipfian:
        return ZipfDraw();
      case KeyDistribution::kLatest: {
        // Key popularity decays with distance from the "newest" key, which
        // advances as the workload runs.
        uint64_t newest = ops_generated_ % options_.num_keys;
        uint64_t back = ZipfDraw();
        return (newest + options_.num_keys - back % options_.num_keys) %
               options_.num_keys;
      }
    }
    return 0;
  }

  std::string NextKey() {
    return "key" + std::to_string(NextKeyIndex());
  }

  uint64_t ops_generated() const { return ops_generated_; }

 private:
  // Standard Zipf(θ) via the Gray et al. method with precomputed zeta.
  void BuildZipf() {
    zeta_ = 0;
    for (uint64_t i = 1; i <= options_.num_keys; ++i) {
      zeta_ += 1.0 / std::pow(static_cast<double>(i), options_.zipf_theta);
    }
    double theta = options_.zipf_theta;
    alpha_ = 1.0 / (1.0 - theta);
    zeta2_ = 1.0 + std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / options_.num_keys, 1.0 - theta)) /
           (1.0 - zeta2_ / zeta_);
  }

  uint64_t ZipfDraw() {
    if (options_.distribution != KeyDistribution::kZipfian &&
        options_.distribution != KeyDistribution::kLatest) {
      return rng_.Uniform(options_.num_keys);
    }
    double u = rng_.NextDouble();
    double uz = u * zeta_;
    if (uz < 1.0) return 0;
    if (uz < zeta2_) return 1;
    uint64_t k = static_cast<uint64_t>(
        options_.num_keys * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return k >= options_.num_keys ? options_.num_keys - 1 : k;
  }

  WorkloadOptions options_;
  Random rng_;
  uint64_t ops_generated_ = 0;
  double zeta_ = 0, zeta2_ = 0, alpha_ = 0, eta_ = 0;
};

}  // namespace chariots::apps

#endif  // CHARIOTS_APPS_WORKLOAD_H_
