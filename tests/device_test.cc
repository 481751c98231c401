// Pins the WorkerDevice contract (DESIGN.md "Worker device"): the cpu
// device's gather/execute/scatter equals BatchAssembler bitwise, poisoned
// rows gather as zeros, a throwing cell produces nothing, the null
// device's outputs are zero and shaped for the batch and arrive in order
// after the fixed latency, and unknown device names fail loudly on both
// engines. Engine-level conformance (Server x {cpu, null}, SimEngine
// driven by identical submission code) lives in api_conformance_test.cc.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/batch_assembler.h"
#include "src/core/request.h"
#include "src/core/server.h"
#include "src/core/sim_engine.h"
#include "src/device/worker_device.h"
#include "src/runtime/cost_model.h"
#include "tests/test_models.h"

namespace batchmaker {
namespace {

std::unique_ptr<WorkerDevice> MakeDevice(const char* name, const CellRegistry* registry,
                                         WorkerDeviceOptions options = {}) {
  const MakeWorkerDeviceFn make = FindWorkerDevice(name);
  if (make == nullptr) {
    return nullptr;
  }
  options.registry = registry;
  return make(options);
}

// `ids.size()` requests of `steps`-step LSTM chains with random externals
// drawn from `seed`; states[i] owns ids[i].
std::vector<std::unique_ptr<RequestState>> MakeStates(const TinyLstmFixture& fix,
                                                      const std::vector<RequestId>& ids,
                                                      int steps, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<RequestState>> owned;
  for (RequestId id : ids) {
    auto state = std::make_unique<RequestState>();
    state->id = id;
    state->graph = fix.model.Unfold(steps);
    for (int e = 0; e < steps + 2; ++e) {  // x_0..x_{steps-1}, h0, c0
      state->externals.push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &rng));
    }
    state->node_outputs.resize(static_cast<size_t>(steps));
    owned.push_back(std::move(state));
  }
  return owned;
}

std::vector<RequestState*> Raw(const std::vector<std::unique_ptr<RequestState>>& owned) {
  std::vector<RequestState*> states;
  for (const auto& state : owned) {
    states.push_back(state.get());
  }
  return states;
}

BatchedTask StepTask(uint64_t id, CellTypeId type, const std::vector<RequestId>& ids,
                     int node) {
  BatchedTask task;
  task.id = id;
  task.type = type;
  for (RequestId request : ids) {
    task.entries.push_back(TaskEntry{request, node});
  }
  return task;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && a.dtype() == b.dtype() &&
         std::memcmp(a.f32(), b.f32(), static_cast<size_t>(a.NumElements()) * sizeof(float)) ==
             0;
}

// ---- cpu device -------------------------------------------------------------

// Two steps of three chains through the device (on a two-thread pool)
// and through BatchAssembler::ExecuteTask on identical copies: every
// scattered output is bitwise equal.
TEST(CpuDeviceTest, GatherExecuteScatterMatchesBatchAssemblerBitwise) {
  TinyLstmFixture fix;
  const CellTypeId type = fix.model.cell_type();
  const std::vector<RequestId> ids = {1, 2, 3};
  const auto device_owned = MakeStates(fix, ids, 2, /*seed=*/11);
  const auto reference_owned = MakeStates(fix, ids, 2, /*seed=*/11);
  const std::vector<RequestState*> device_states = Raw(device_owned);
  const std::vector<RequestState*> reference_states = Raw(reference_owned);

  WorkerDeviceOptions options;
  options.threads = 2;
  const auto device = MakeDevice("cpu", &fix.registry, options);
  ASSERT_NE(device, nullptr);
  const BatchAssembler assembler(&fix.registry);
  for (int node = 0; node < 2; ++node) {
    const BatchedTask task = StepTask(static_cast<uint64_t>(node + 1), type, ids, node);
    GatheredBatch gathered = device->Gather(task, device_states, nullptr);
    std::optional<std::vector<Tensor>> outputs = device->Execute(task, std::move(gathered));
    ASSERT_TRUE(outputs.has_value());
    device->Scatter(task, device_states, *outputs, nullptr);
    assembler.ExecuteTask(task, reference_states);
  }
  for (size_t r = 0; r < ids.size(); ++r) {
    for (int node = 0; node < 2; ++node) {
      const auto& got = device_states[r]->node_outputs[static_cast<size_t>(node)];
      const auto& want = reference_states[r]->node_outputs[static_cast<size_t>(node)];
      ASSERT_EQ(got.size(), want.size());
      ASSERT_FALSE(got.empty());
      for (size_t o = 0; o < got.size(); ++o) {
        EXPECT_TRUE(BitwiseEqual(got[o], want[o]))
            << "request " << ids[r] << " node " << node << " output " << o;
      }
    }
  }
}

// A task mixing poisoned and clean entries gathers zero rows for the
// poisoned ones (their producer failed and wrote nothing) and the
// producers' rows for the clean ones.
TEST(CpuDeviceTest, GatherZeroFillsPoisonedRowsBesideCleanOnes) {
  TinyLstmFixture fix;
  const CellTypeId type = fix.model.cell_type();
  const CellDef& def = fix.registry.def(type);
  const auto device = MakeDevice("cpu", &fix.registry);
  ASSERT_NE(device, nullptr);
  Rng rng(7);

  // Step 1 of two 2-step chains; only the first chain's step 0 produced.
  const std::vector<RequestId> ids = {1, 2};
  const auto owned = MakeStates(fix, ids, 2, /*seed=*/7);
  const std::vector<RequestState*> states = Raw(owned);
  const BatchedTask task = StepTask(1, type, ids, /*node=*/1);
  for (int o = 0; o < def.NumOutputs(); ++o) {
    states[0]->node_outputs[0].push_back(Tensor::RandomUniform(Shape{1, 4}, 1.0f, &rng));
  }
  const std::vector<uint8_t> poisoned = {0, 1};

  GatheredBatch gathered = device->Gather(task, states, &poisoned);
  ASSERT_EQ(gathered.inputs.size(), static_cast<size_t>(def.NumInputs()));
  const CellNode& node = states[0]->graph.node(1);
  for (int slot = 0; slot < def.NumInputs(); ++slot) {
    const Tensor& in = gathered.inputs[static_cast<size_t>(slot)];
    ASSERT_EQ(in.shape().Dim(0), 2) << "slot " << slot;
    const ValueRef& ref = node.inputs[static_cast<size_t>(slot)];
    const Tensor& src =
        ref.is_external()
            ? states[0]->externals[static_cast<size_t>(ref.external)]
            : states[0]->node_outputs[static_cast<size_t>(ref.node)]
                                     [static_cast<size_t>(ref.output)];
    for (int64_t c = 0; c < in.shape().Dim(1); ++c) {
      EXPECT_EQ(in.At(0, c), src.At(0, c)) << "slot " << slot;
      EXPECT_EQ(in.At(1, c), 0.0f) << "slot " << slot;
    }
  }
  // Execute consumes the staged rows and recycles the arena.
  EXPECT_TRUE(device->Execute(task, std::move(gathered)).has_value());
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// Stages a `rows`-row batch of zeros, caps this process's address space
// at its current size and executes the batch on `device`. Returns 0 when
// the task produced nothing, 1 when it produced outputs, 2 when the cap
// could not be set.
int ExecuteUnderAddressSpaceCap(WorkerDevice* device, const CellDef& def,
                                const BatchedTask& task) {
  GatheredBatch gathered;
  for (int i = 0; i < def.NumInputs(); ++i) {
    std::vector<int64_t> dims{task.BatchSize()};
    for (int64_t d : def.input_spec(i).row_shape.dims()) {
      dims.push_back(d);
    }
    gathered.inputs.push_back(Tensor::Zeros(Shape(std::move(dims))));
  }
  long pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t bytes = static_cast<rlim_t>(pages) * static_cast<rlim_t>(sysconf(_SC_PAGESIZE));
  const rlimit cap{bytes, bytes};
  if (pages <= 0 || setrlimit(RLIMIT_AS, &cap) != 0) {
    return 2;
  }
  return device->Execute(task, std::move(gathered)).has_value() ? 1 : 0;
}

// A cell that throws makes the task produce nothing. The cell is made to
// throw the way a real one does, with std::bad_alloc: in a child process
// whose address space is capped at its current size, the cell's
// intermediates for a 2^18-row batch cannot be allocated.
TEST(CpuDeviceDeathTest, ThrowingCellProducesNothing) {
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer allocators abort on exhaustion instead of throwing";
  }
  TinyLstmFixture fix;
  BatchedTask task;
  task.id = 1;
  task.type = fix.model.cell_type();
  task.entries.resize(size_t{1} << 18);
  const auto device = MakeDevice("cpu", &fix.registry);
  ASSERT_NE(device, nullptr);
  EXPECT_EXIT(
      std::_Exit(ExecuteUnderAddressSpaceCap(device.get(), fix.registry.def(task.type), task)),
      ::testing::ExitedWithCode(0), "");
}

// ---- null device ------------------------------------------------------------

TEST(NullDeviceTest, OutputsAreZerosShapedForTheBatch) {
  TinyLstmFixture fix;
  const CellTypeId type = fix.model.cell_type();
  const CellDef& def = fix.registry.def(type);
  const auto device = MakeDevice("null", &fix.registry);
  ASSERT_NE(device, nullptr);

  for (int batch : {1, 3}) {
    BatchedTask task;
    task.id = 1;
    task.type = type;
    task.entries.resize(static_cast<size_t>(batch));
    GatheredBatch gathered = device->Gather(task, {}, nullptr);
    EXPECT_TRUE(gathered.inputs.empty());  // reads no input rows
    const std::optional<std::vector<Tensor>> outputs =
        device->Execute(task, std::move(gathered));
    ASSERT_TRUE(outputs.has_value());
    ASSERT_EQ(outputs->size(), static_cast<size_t>(def.NumOutputs()));
    for (int i = 0; i < def.NumOutputs(); ++i) {
      const ValueType& vt = def.output_type(i);
      const Tensor& out = (*outputs)[static_cast<size_t>(i)];
      ASSERT_EQ(out.shape().dims().size(), vt.shape.dims().size() + 1);
      EXPECT_EQ(out.shape().Dim(0), batch);
      for (size_t d = 0; d < vt.shape.dims().size(); ++d) {
        EXPECT_EQ(out.shape().Dim(static_cast<int>(d) + 1), vt.shape.dims()[d]);
      }
      for (int64_t r = 0; r < out.shape().Dim(0); ++r) {
        for (int64_t c = 0; c < out.shape().Dim(1); ++c) {
          ASSERT_EQ(out.At(r, c), 0.0f);
        }
      }
    }
  }
}

TEST(NullDeviceTest, CompletionsArriveInOrderEachAfterTheLatency) {
  TinyLstmFixture fix;
  WorkerDeviceOptions options;
  options.null_latency_micros = 15000.0;
  const auto device = MakeDevice("null", &fix.registry, options);
  ASSERT_NE(device, nullptr);
  using Clock = std::chrono::steady_clock;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
  for (uint64_t id : {1, 2}) {
    BatchedTask task;
    task.id = id;
    task.type = fix.model.cell_type();
    task.entries.resize(1);
    const Clock::time_point start = Clock::now();
    EXPECT_TRUE(device->Execute(task, device->Gather(task, {}, nullptr)).has_value());
    spans.emplace_back(start, Clock::now());
  }
  for (const auto& span : spans) {
    const std::chrono::duration<double, std::micro> took = span.second - span.first;
    EXPECT_GE(took.count(), 15000.0);
  }
  EXPECT_LE(spans[0].second, spans[1].first);
}

// ---- device names -----------------------------------------------------------

TEST(WorkerDeviceTest, OnlyCpuAndNullAreDevices) {
  EXPECT_NE(FindWorkerDevice("cpu"), nullptr);
  EXPECT_NE(FindWorkerDevice("null"), nullptr);
  EXPECT_EQ(FindWorkerDevice("sim"), nullptr);
  EXPECT_EQ(FindWorkerDevice("tpu"), nullptr);
  EXPECT_EQ(FindWorkerDevice(""), nullptr);
}

TEST(WorkerDeviceDeathTest, ServerRejectsAnUnknownBackend) {
  TinyLstmFixture fix;
  ServerOptions options;
  options.backend = "tpu";
  EXPECT_DEATH({ Server server(&fix.registry, options); }, "unknown device backend 'tpu'");
}

TEST(WorkerDeviceDeathTest, SimEngineRejectsARealDevice) {
  TinyLstmFixture fix;
  CostModel cost;
  SimEngineOptions options;
  options.backend = "cpu";
  EXPECT_DEATH({ SimEngine sim(&fix.registry, &cost, options); }, "backend 'cpu' runs on Server");
}

}  // namespace
}  // namespace batchmaker
