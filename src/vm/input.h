// External-input modeling.
//
// kInput is the IR's stand-in for every nondeterministic environment
// interaction (network packets, file reads, time). In production these are
// NOT recorded (the paper's premise); the VM still keeps a consumed-input
// journal per run so tests can establish ground truth and so the ODR-style
// recording baseline has something to log.
#ifndef RES_VM_INPUT_H_
#define RES_VM_INPUT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "src/support/rng.h"

namespace res {

struct ConsumedInput {
  uint32_t thread = 0;
  int64_t channel = 0;
  int64_t value = 0;
};

class InputProvider {
 public:
  virtual ~InputProvider() = default;
  // Next value on `channel` for `thread`. Must always succeed (production
  // inputs never "run out"; providers define the exhausted behaviour).
  virtual int64_t Next(uint32_t thread, int64_t channel) = 0;
};

// Deterministic pseudo-random inputs — models an environment the program
// cannot predict but tests can reproduce from the seed.
class RandomInputProvider : public InputProvider {
 public:
  // Values are drawn uniformly from [lo, hi].
  RandomInputProvider(uint64_t seed, int64_t lo = 0, int64_t hi = 255)
      : rng_(seed), lo_(lo), hi_(hi) {}
  int64_t Next(uint32_t /*thread*/, int64_t /*channel*/) override {
    return rng_.NextInRange(lo_, hi_);
  }

 private:
  Rng rng_;
  int64_t lo_;
  int64_t hi_;
};

// Scripted per-channel queues; returns `fallback` when a queue is exhausted.
class QueueInputProvider : public InputProvider {
 public:
  explicit QueueInputProvider(int64_t fallback = 0) : fallback_(fallback) {}
  void Push(int64_t channel, int64_t value) { queues_[channel].push_back(value); }
  void PushAll(int64_t channel, const std::vector<int64_t>& values) {
    for (int64_t v : values) {
      Push(channel, v);
    }
  }
  int64_t Next(uint32_t /*thread*/, int64_t channel) override {
    auto it = queues_.find(channel);
    if (it == queues_.end() || it->second.empty()) {
      return fallback_;
    }
    int64_t v = it->second.front();
    it->second.pop_front();
    return v;
  }

 private:
  std::map<int64_t, std::deque<int64_t>> queues_;
  int64_t fallback_;
};

// Replays a journal of per-thread input values (the suffix's input trace):
// each thread consumes its own FIFO. Falls back to 0 past the end.
class ReplayInputProvider : public InputProvider {
 public:
  void Push(uint32_t thread, int64_t value) { queues_[thread].push_back(value); }
  int64_t Next(uint32_t thread, int64_t /*channel*/) override {
    auto it = queues_.find(thread);
    if (it == queues_.end() || it->second.empty()) {
      ran_dry_ = true;
      return 0;
    }
    int64_t v = it->second.front();
    it->second.pop_front();
    return v;
  }
  bool ran_dry() const { return ran_dry_; }

 private:
  std::map<uint32_t, std::deque<int64_t>> queues_;
  bool ran_dry_ = false;
};

}  // namespace res

#endif  // RES_VM_INPUT_H_
