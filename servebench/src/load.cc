#include "servebench/src/load.h"

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <cmath>
#include <limits>
#include <memory>
#include <semaphore>
#include <thread>
#include <utility>

#include "src/util/rng.h"

namespace servebench {

using namespace batchmaker;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Outcome code for a kOk response whose output differed from the reference
// (RequestStatus values occupy 0..4).
constexpr uint8_t kMismatch = 100;
// One in kSampleEvery kOk responses is compared with the reference.
constexpr uint64_t kSampleEvery = 4;
// A phase whose answers have not all arrived this long after its last
// Submit counts the missing ones as callback errors.
constexpr int64_t kDrainTimeoutNs = 30'000'000'000;
constexpr int kLoadThreadNice = -10;
// Share of an open-loop phase, from its start, whose times are not used.
constexpr double kLeadInShare = 0.1;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::chrono::steady_clock::time_point AtNs(int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

int64_t HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// CPU time of every thread of the process but the calling (load) one, ns.
int64_t OtherThreadsCpuNs() {
  return CpuNs(CLOCK_PROCESS_CPUTIME_ID) - CpuNs(CLOCK_THREAD_CPUTIME_ID);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() { return CpuNs(CLOCK_PROCESS_CPUTIME_ID); }

std::vector<double> WindowPercentiles(const std::vector<double>& values, double q) {
  const size_t n = values.size();
  const size_t windows =
      std::max<size_t>(n / static_cast<size_t>(kWindowSamples), 1);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(Percentile(
        std::vector<double>(values.begin() + static_cast<ptrdiff_t>(w * n / windows),
                            values.begin() + static_cast<ptrdiff_t>((w + 1) * n / windows)),
        q));
  }
  return per_window;
}

double Percentile(std::vector<double> values, double q) {
  const size_t n = values.size();
  if (n == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

// Per-request bookkeeping of one phase. Callbacks write their own slot;
// the load thread reads the slots only after `completed` says they landed.
struct LoadGenerator::Phase {
  Phase(size_t capacity, const std::vector<PoolEntry>* pool_in, uint64_t seed, int slots_in)
      : pool(pool_in),
        sample_seed(seed),
        closed(slots_in > 0),
        done_ns(new std::atomic<int64_t>[capacity]),
        fired(new std::atomic<uint8_t>[capacity]),
        outcome(new std::atomic<uint8_t>[capacity]),
        slots(slots_in) {
    entry.reserve(capacity);
    start_ns.reserve(capacity);
    for (size_t i = 0; i < capacity; ++i) {
      done_ns[i].store(0, std::memory_order_relaxed);
      fired[i].store(0, std::memory_order_relaxed);
      outcome[i].store(0, std::memory_order_relaxed);
    }
  }

  const std::vector<PoolEntry>* pool;
  uint64_t sample_seed;
  bool closed;
  // Load thread only: the pool entry sent and the time latency counts
  // from, per request.
  std::vector<uint32_t> entry;
  std::vector<int64_t> start_ns;
  std::unique_ptr<std::atomic<int64_t>[]> done_ns;
  std::unique_ptr<std::atomic<uint8_t>[]> fired;
  std::unique_ptr<std::atomic<uint8_t>[]> outcome;
  // Load thread only: CPU time spent inside Submit.
  int64_t submit_cpu_ns = 0;
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> checked{0};
  // Closed loop: free request slots.
  std::counting_semaphore<std::numeric_limits<int>::max()> slots;
};

// The response callback. Small and trivially copyable, so std::function
// stores it without allocating.
struct LoadGenerator::Answer {
  Phase* phase;
  uint32_t index;
  uint32_t entry;

  void operator()(RequestId, RequestStatus status, std::vector<Tensor> outputs) const {
    const int64_t now = NowNs();
    uint8_t code = static_cast<uint8_t>(status);
    if (status == RequestStatus::kOk &&
        SplitMix64(phase->sample_seed ^ index) % kSampleEvery == 0) {
      phase->checked.fetch_add(1, std::memory_order_relaxed);
      const Tensor& want = (*phase->pool)[entry].reference;
      if (outputs.size() != 1 || !outputs[0].ElementsEqual(want)) {
        code = kMismatch;
      }
    }
    phase->outcome[index].store(code, std::memory_order_relaxed);
    phase->done_ns[index].store(now, std::memory_order_relaxed);
    phase->fired[index].fetch_add(1, std::memory_order_relaxed);
    phase->completed.fetch_add(1, std::memory_order_release);
    if (phase->closed) {
      phase->slots.release();
    }
  }
};

LoadGenerator::LoadGenerator(Server* server, const std::vector<PoolEntry>* pool,
                             uint64_t seed)
    : server_(server), pool_(pool), seed_(seed) {
  // The generator runs on the calling thread. It stands in for clients on
  // other machines, whose sends do not wait for the server's threads: a
  // higher priority lets it preempt them at each due time, and a 1 us
  // timer slack wakes it close to that time instead of 50 us late.
  priority_raised_ =
      setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), kLoadThreadNice) == 0;
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
}

LoadGenerator::~LoadGenerator() = default;

uint32_t LoadGenerator::NextEntry(Rng* rng) {
  if (cursor_ == order_.size()) {
    if (order_.empty()) {
      for (uint32_t i = 0; i < pool_->size(); ++i) {
        order_.push_back(i);
      }
    }
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng->NextBelow(i)]);
    }
    cursor_ = 0;
  }
  return order_[cursor_++];
}

void LoadGenerator::Send(Phase* phase, int64_t index, CellGraph graph,
                         std::vector<Tensor> externals, PhaseResult* result) {
  const uint32_t entry = phase->entry[static_cast<size_t>(index)];
  std::vector<ValueRef> wanted{(*pool_)[entry].output};
  const Answer answer{phase, static_cast<uint32_t>(index), entry};
  const int64_t cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  const int64_t t0 = NowNs();
  const RequestId id =
      server_->Submit(std::move(graph), std::move(externals), std::move(wanted), answer);
  const int64_t t1 = NowNs();
  phase->submit_cpu_ns += CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  result->submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  if (result->first_id == kInvalidRequestId) {
    result->first_id = id;
  }
  result->last_id = id;
  result->sent = index + 1;
  const int64_t outstanding =
      result->sent - phase->completed.load(std::memory_order_relaxed);
  result->max_outstanding = std::max(result->max_outstanding, outstanding);
}

PhaseResult LoadGenerator::OpenLoop(double rate_rps, double seconds, int64_t max_backlog) {
  Rng rng(SplitMix64(seed_ * 1000003ULL + ++phase_counter_));
  std::vector<int64_t> offsets;
  for (double t = rng.NextExponential(rate_rps); t < seconds;
       t += rng.NextExponential(rate_rps)) {
    offsets.push_back(static_cast<int64_t>(t * 1e9));
  }
  phases_.push_back(std::make_unique<Phase>(offsets.size(), pool_, rng.NextU64(), 0));
  Phase* phase = phases_.back().get();
  for (size_t i = 0; i < offsets.size(); ++i) {
    phase->entry.push_back(NextEntry(&rng));
  }

  PhaseResult result;
  result.seconds = seconds;
  result.lag_ms.reserve(offsets.size());
  result.submit_us.reserve(offsets.size());
  const int64_t heap_before = HeapInUseBytes();
  const int64_t cpu_before = OtherThreadsCpuNs();
  const int64_t start = NowNs() + 1'000'000;
  for (size_t i = 0; i < offsets.size(); ++i) {
    // Copy the recycled inputs before waiting, so the copy never delays
    // the send.
    const PoolEntry& entry = (*pool_)[phase->entry[i]];
    CellGraph graph = entry.graph;
    std::vector<Tensor> externals = entry.externals;
    const int64_t due = start + offsets[i];
    if (due > NowNs()) {
      std::this_thread::sleep_until(AtNs(due));
    }
    phase->start_ns.push_back(due);
    result.lag_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
    Send(phase, static_cast<int64_t>(i), std::move(graph), std::move(externals), &result);
    if (max_backlog > 0 &&
        result.sent - phase->completed.load(std::memory_order_relaxed) > max_backlog) {
      result.overloaded = true;
      break;
    }
  }
  result.backlog_at_end = result.sent - phase->completed.load(std::memory_order_acquire);
  Finish(phase, start, heap_before, &result);
  result.server_cpu_s =
      static_cast<double>(OtherThreadsCpuNs() - cpu_before + phase->submit_cpu_ns) / 1e9;
  if (result.sent > 1) {
    const int64_t span = offsets[static_cast<size_t>(result.sent - 1)] - offsets[0];
    result.sent_rps = static_cast<double>(result.sent - 1) * 1e9 / static_cast<double>(span);
  }
  // Requests of the lead-in count as sent and are checked, but their times
  // are dropped: the server settles from the previous phase meanwhile.
  const auto lead_in = std::min(
      static_cast<ptrdiff_t>(result.latency_ms.size()),
      std::lower_bound(offsets.begin(), offsets.end(),
                       static_cast<int64_t>(kLeadInShare * seconds * 1e9)) -
          offsets.begin());
  result.latency_ms.erase(result.latency_ms.begin(), result.latency_ms.begin() + lead_in);
  result.lag_ms.erase(result.lag_ms.begin(), result.lag_ms.begin() + lead_in);
  return result;
}

PhaseResult LoadGenerator::ClosedLoop(int outstanding, double seconds, int64_t max_requests) {
  Rng rng(SplitMix64(seed_ * 1000003ULL + ++phase_counter_));
  phases_.push_back(std::make_unique<Phase>(static_cast<size_t>(max_requests), pool_,
                                            rng.NextU64(), outstanding));
  Phase* phase = phases_.back().get();

  PhaseResult result;
  result.seconds = seconds;
  result.submit_us.reserve(static_cast<size_t>(max_requests));
  const int64_t heap_before = HeapInUseBytes();
  const int64_t cpu_before = OtherThreadsCpuNs();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  for (int64_t i = 0; i < max_requests; ++i) {
    phase->entry.push_back(NextEntry(&rng));
    const PoolEntry& entry = (*pool_)[phase->entry.back()];
    CellGraph graph = entry.graph;
    std::vector<Tensor> externals = entry.externals;
    if (!phase->slots.try_acquire_until(AtNs(end)) || NowNs() >= end) {
      phase->entry.pop_back();
      break;
    }
    phase->start_ns.push_back(NowNs());
    Send(phase, i, std::move(graph), std::move(externals), &result);
  }
  result.backlog_at_end = result.sent - phase->completed.load(std::memory_order_acquire);
  Finish(phase, start, heap_before, &result);
  result.server_cpu_s =
      static_cast<double>(OtherThreadsCpuNs() - cpu_before + phase->submit_cpu_ns) / 1e9;
  return result;
}

void LoadGenerator::Finish(Phase* phase, int64_t start, int64_t heap_before,
                           PhaseResult* result) {
  const int64_t give_up = NowNs() + kDrainTimeoutNs;
  while (phase->completed.load(std::memory_order_acquire) < result->sent &&
         NowNs() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  result->heap_growth_bytes = HeapInUseBytes() - heap_before;
  // Throughput windows split the phase after its first tenth.
  const double window_ns = kRateWindowSeconds * 1e9;
  const int64_t windows_begin = start + static_cast<int64_t>(result->seconds * 1e8);
  std::vector<int64_t> ok_in_window(
      std::max<size_t>(1, static_cast<size_t>(0.9 * result->seconds / kRateWindowSeconds)), 0);
  result->latency_ms.reserve(static_cast<size_t>(result->sent));
  for (int64_t i = 0; i < result->sent; ++i) {
    const size_t s = static_cast<size_t>(i);
    if (phase->fired[s].load(std::memory_order_relaxed) != 1) {
      ++result->callback_errors;
      result->latency_ms.push_back(kInf);
      continue;
    }
    const int64_t done = phase->done_ns[s].load(std::memory_order_relaxed);
    switch (phase->outcome[s].load(std::memory_order_relaxed)) {
      case static_cast<uint8_t>(RequestStatus::kOk):
        ++result->ok;
        result->latency_ms.push_back(static_cast<double>(done - phase->start_ns[s]) / 1e6);
        if (done >= windows_begin) {
          const auto w = static_cast<size_t>(static_cast<double>(done - windows_begin) / window_ns);
          if (w < ok_in_window.size()) {
            ++ok_in_window[w];
          }
        }
        continue;
      case static_cast<uint8_t>(RequestStatus::kShed):
        ++result->shed;
        break;
      case static_cast<uint8_t>(RequestStatus::kRejected):
        ++result->rejected;
        break;
      case static_cast<uint8_t>(RequestStatus::kFailed):
        ++result->failed;
        break;
      case static_cast<uint8_t>(RequestStatus::kCancelled):
        ++result->cancelled;
        break;
      default:
        ++result->mismatched;
        break;
    }
    result->latency_ms.push_back(kInf);
  }
  result->checked = phase->checked.load(std::memory_order_relaxed);
  for (const int64_t ok : ok_in_window) {
    result->window_ok_rps.push_back(static_cast<double>(ok) / (window_ns / 1e9));
  }
}

}  // namespace servebench
