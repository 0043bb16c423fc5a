// The lazy auto-batching engine (paper §3-§5).
//
// Executors record tensor ops instead of running them; `trigger_execution`
// schedules all pending ops into batches — one simulated device launch per
// batch — so same-signature ops from many program instances collapse into a
// single launch. Per-launch overhead is charged as real wall time
// (EngineConfig::launch_overhead_ns, DESIGN.md substitution table), which is
// what makes launch counts show up in every bench's latencies.
//
// The same engine also hosts the baselines: eager mode (lazy=false, one
// launch per op), and DyNet mode (per-node boxed DFG construction cost,
// agenda/depth dynamic schedulers, first-argument-keyed matmul batching,
// device memory cap).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "engine/kernels.h"
#include "engine/value.h"
#include "support/timer.h"
#include "tensor/block_cache.h"
#include "tensor/tensor.h"

namespace acrobat {

class FiberScheduler;
namespace trace {
class Tracer;
}

// Per-activity time accounting (Table 6 rows).
struct ActivityStats {
  TimeBucket dfg_construction;  // recording nodes into the graph
  TimeBucket scheduling;        // grouping pending nodes into batches
  TimeBucket gather_copy;       // staging scattered inputs (explicit gathers)
  TimeBucket kernel_exec;       // time inside kernels
  TimeBucket launch_overhead;   // simulated device API time
  long long kernel_launches = 0;
  long long gather_bytes = 0;  // bytes staged by explicit gathers
  // Single-call batch executions: a flat elementwise collapse (n ops → one
  // run_op over n×numel) or a stacked shared-parameter matmul (including
  // the row-pointer kLinear call). Together
  // with kernel_launches these make the hot-path shape observable — tests
  // assert the fast paths actually fire, not just that outputs match.
  long long flat_batches = 0;
  long long stacked_batches = 0;
  // Scheduler/executor scratch growth events. All per-trigger bookkeeping
  // lives in engine-owned buffers reused across triggers, so after warmup
  // this stops advancing — steady-state serving does zero scheduler heap
  // allocation (tests/test_engine_batching.cpp asserts the plateau).
  long long scheduling_allocs = 0;
  // Always 0; read only by bench/e2e/workloads.cpp's engine.memo_* metrics.
  static constexpr long long sched_cache_hits = 0, sched_cache_misses = 0;

  ActivityStats& operator+=(const ActivityStats& o);
};

// The ActivityStats counter table, X(member, json_key), in the bench JSON's
// key order (bench/bench_util.h CounterJson; the golden counter check keys
// on these names). operator+= and the JSON expand it, so it is the one
// list of fields; a field added to the struct without a row fails the
// static_assert below.
#define ACROBAT_ACTIVITY_STATS(X)               \
  X(dfg_construction, "dfg_ns")                 \
  X(scheduling, "scheduling_ns")                \
  X(gather_copy, "gather_ns")                   \
  X(kernel_exec, "exec_ns")                     \
  X(launch_overhead, "launch_ns")               \
  X(kernel_launches, "kernel_launches")         \
  X(gather_bytes, "gather_bytes")               \
  X(flat_batches, "flat_batches")               \
  X(stacked_batches, "stacked_batches")         \
  X(scheduling_allocs, "scheduling_allocs")

#define ACROBAT_COUNT_ROW(member, key) +1
static_assert(sizeof(ActivityStats) ==
                  (0 ACROBAT_ACTIVITY_STATS(ACROBAT_COUNT_ROW)) * sizeof(std::int64_t),
              "every ActivityStats field needs a row in ACROBAT_ACTIVITY_STATS");
#undef ACROBAT_COUNT_ROW

// A table row's value: a TimeBucket counts its nanoseconds.
inline long long counter_value(const TimeBucket& b) { return b.ns; }
inline long long counter_value(long long v) { return v; }

inline ActivityStats& ActivityStats::operator+=(const ActivityStats& o) {
#define ACROBAT_ADD_ROW(member, key) member += o.member;
  ACROBAT_ACTIVITY_STATS(ACROBAT_ADD_ROW)
#undef ACROBAT_ADD_ROW
  return *this;
}

struct EngineStats : ActivityStats {
  std::vector<long long> kernel_invocations;  // per kernel id (PGO profile)
};

// Thrown when a memory-capped run (DyNet Berxit, Table 5) exceeds its cap.
struct OomError {};

enum class SchedulerKind {
  kDepth,   // depth buckets: (phase, depth, kernel) — ACROBAT and DyNet/depth
  kAgenda,  // DyNet's greedy most-ready-signature-class scheduler
};

struct EngineConfig {
  std::int64_t launch_overhead_ns = 0;
  bool lazy = true;          // false: execute each op as recorded (eager baseline)
  bool inline_depth = true;  // false: recover depths by graph traversal per trigger
  bool phases = true;        // honor program phase tags when grouping
  bool gather_fusion = true;  // false: stage scattered batch inputs via copies
  bool const_reuse = true;    // dedupe zero-arity constant nodes
  // Flat batch execution for elementwise families: a batch of n same-kernel
  // elementwise ops with contiguous inputs (the common case — batch outputs
  // are allocated back-to-back) runs as ONE run_op over n×numel elements
  // instead of n calls, with bitwise-identical outputs. Scattered inputs
  // fall back per-op, or through an explicit staging gather when
  // gather_fusion is off. False isolates the op-at-a-time path (tests).
  bool fuse_elementwise = true;
  // Chain fusion (DESIGN.md §5 "Chains"), a depth-scheduler rule for
  // ACRoBat's engines only: a batch of an elementwise kernel whose members
  // read only values of their own shape that were materialized before that
  // kernel's last launch in the phase group, or written by it since, runs
  // inside that launch. So a dependency chain such as BiRNN's per-token
  // accumulation pays one launch, not one per step. harness::engine_config_for
  // sets it from PipelineConfig::kernel_fusion; the baselines and training
  // leave it off, and the agenda scheduler ignores it.
  bool fuse_chains = false;
  SchedulerKind scheduler = SchedulerKind::kDepth;
  bool shape_keyed_batching = true;  // false: matmul family batches per first arg
  bool boxed_dfg = false;            // DyNet-style per-node construction work
  bool fuse_waves = false;           // Cortex: one persistent launch per ready wave
  int stage_all_amp = 0;             // Cortex MV-RNN: forced input copies, amplified
  std::size_t memory_cap_bytes = 0;  // 0 = uncapped
  bool time_activities = false;
  // Steady-state serving (DESIGN.md §7 "Recycling"): per-request node slots
  // and arena pages are reclaimed when the serve loop retires a completed
  // request, so node table and arena footprint plateau at peak concurrency
  // instead of growing with request count. Requires lazy mode; mutually
  // exclusive with exec-log autodiff replay (the log is not kept — retired
  // node ids would dangle).
  bool recycle = false;
};

// Identifies the recording program instance (used for diagnostics and for
// instance-at-a-time baselines; batching is signature-driven, not
// instance-driven).
struct InstCtx {
  int instance = 0;
};

class Engine {
 public:
  Engine(const KernelRegistry& registry, EngineConfig cfg);

  // Wraps external storage (weights, dataset tensors) as a materialized node.
  TRef add_concrete(TensorView v);

  // Records a lazy op; returns a future. `phase` is the program-phase tag
  // the executor is currently in (0 = main phase).
  TRef add_op(int kernel_id, const TRef* ins, int n_ins, const InstCtx& ctx, int phase);

  // Materializes (triggering execution if pending) and returns a view.
  Tensor force(TRef r);

  // Ensures `r` is materialized. Inside a fiber this suspends the instance
  // and lets other instances record (runtime/fiber.h); otherwise it triggers
  // execution directly — the instance-at-a-time fallback.
  void sync(TRef r);

  // sync + read element 0 (data-dependent control flow).
  float scalar(TRef r);

  bool materialized(TRef r) const;
  const Shape& shape(TRef r) const;
  const float* data(TRef r) const;  // null until materialized

  // Executes every pending op in batched order.
  void trigger_execution();

  void set_fiber_scheduler(FiberScheduler* fs) { fibers_ = fs; }

  // Observability (trace/trace.h, DESIGN.md §9): when set, triggers,
  // scheduling, batches, and gathers emit events into the shard-owned
  // ring. Null (the default) costs one predicted branch per site —
  // tests/test_trace.cpp proves bitwise on/off parity.
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  // Serving hook (serve/server.h): called at the top of every trigger,
  // before pending ops are scheduled. The hook may admit newly arrived
  // requests (spawn fibers and step them until they suspend), so one
  // trigger batches ops from old and new requests together — continuous
  // batching across requests, not just across a closed instance batch.
  void set_admission_hook(std::function<void()> hook) { admission_hook_ = std::move(hook); }

  // --- iteration-level scheduling (DESIGN.md §7; ir::Op::kStepKeep) -------
  //
  // A generative session calls session_step once per emitted token, after
  // the step's sync has materialized its state. Under recycling the call
  // checkpoints the carried state into an engine-owned per-session buffer
  // (the KV-cache analogue: persistent across steps, retired with the
  // session), retires the step's transient node span under the existing
  // epoch protocol, and re-enters the kept state as a depth-0 materialized
  // node — so session memory plateaus at peak concurrent sessions, not
  // token count. Without recycling it is a pass-through (the solo/bench
  // path), which is what makes a single-session serve decode
  // bitwise-identical to a solo run. The step hook, when set, is the serve loop's per-token admission
  // gate: kPark parks the fiber until the shard re-admits the session (the
  // hook is re-consulted after every unpark, so a shard can cancel a parked
  // session mid-stream); kStop cancels — the program sees cont == 0 and
  // exits through its tail.
  enum class StepVerdict { kRun, kPark, kStop };
  using StepHook = std::function<StepVerdict(int instance)>;
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }
  struct StepResult {
    TRef state;
    long long cont = 1;
  };
  StepResult session_step(TRef state, const InstCtx& ctx);

  const EngineStats& stats() const { return stats_; }
  const KernelRegistry& registry() const { return registry_; }

  // Execution log for reverse-replay autodiff (grad/backward.h): batches in
  // execution order, each a kernel id plus the node ids it ran.
  struct ExecBatch {
    int kernel_id = -1;
    std::vector<std::uint32_t> nodes;
    bool merged = false;  // ran inside an earlier batch's launch (fuse_waves, fuse_chains)
  };
  // Empty when recycling is on (retired node ids would dangle); callers
  // that replay it must check `recycling()` — backward() refuses loudly.
  const std::vector<ExecBatch>& exec_log() const { return exec_log_; }
  bool recycling() const { return cfg_.recycle; }
  int kernel_of(TRef r) const;  // -1 for concrete nodes
  std::span<const TRef> inputs_of(TRef r) const;
  // Node-table slots ever allocated; with recycling this plateaus at peak
  // concurrency while `live_nodes` dips as requests retire.
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t live_nodes() const { return nodes_.size() - free_slots_.size(); }

  // --- epoch recycling (EngineConfig::recycle; serve/server.h drives this)

  // Registers a request at the current epoch. Every node it records is
  // tracked as its span; arena pages it allocates into cannot be reclaimed
  // until it retires.
  void begin_request(int instance);

  // Retires a completed request: its node slots go onto the free list with
  // bumped generations (stale TRefs then fault in debug), and arena pages
  // older than every still-live request's admission epoch return to the
  // page pool. Call only after the request's outputs have been consumed.
  void retire_request(int instance);

  // Memory-watermark and live-node gauges (serve/stats.h per-shard report).
  struct MemoryStats {
    std::size_t node_table_size = 0;   // slots ever allocated
    std::size_t live_nodes = 0;        // slots not on the free list
    std::size_t live_nodes_peak = 0;
    long long nodes_recycled = 0;
    std::size_t arena_active_bytes = 0;
    std::size_t arena_high_water_bytes = 0;  // peak bytes in live arena pages
    long long arena_pages_recycled = 0;
    // Slots a Release-mode retire_request could not recycle because the
    // request still had pending (unexecuted) ops — reusing such a slot
    // would alias the next request, so it is abandoned instead. Debug
    // builds assert; steady-state soaks check this stays 0.
    long long leaked_slots = 0;
    // Persistent-region footprint (cached constants materialized outside
    // the epoch protocol). With a multi-model fleet shard every model's
    // constants land here once; the gauge must go flat after each model's
    // first request and stay flat for the rest of the trace
    // (tests/test_fleet.cpp soak).
    std::size_t persist_arena_high_water_bytes = 0;
    // Per-session persistent state (session_step checkpoints). Buffers are
    // pooled across sessions, so bytes-ever-allocated plateaus at peak
    // concurrent sessions while live counts dip as sessions retire — the
    // decode soak's plateau gauges (tests/test_decode.cpp).
    std::size_t session_buffers_live = 0;
    std::size_t session_buffers_peak = 0;
    std::size_t session_bytes_allocated = 0;  // monotone; plateaus via pool reuse
  };
  MemoryStats memory() const;

 private:
  // At most this many inputs per op (the executors stage operands in arrays
  // this wide); record_op aborts on a wider op in every build.
  static constexpr int kMaxIns = 8;

  // Node inputs, held inline: a node has no heap member, so it is trivially
  // copyable and recording one allocates nothing (the DFG-construction row
  // of Table 6).
  class InsList {
   public:
    void assign(const TRef* p, int count) {
      n_ = count;
      for (int i = 0; i < count; ++i) ins_[i] = p[i];
    }
    void clear() { n_ = 0; }
    std::size_t size() const { return static_cast<std::size_t>(n_); }
    const TRef& operator[](std::size_t i) const { return ins_[i]; }
    const TRef* begin() const { return ins_; }
    const TRef* end() const { return ins_ + n_; }

   private:
    TRef ins_[kMaxIns];
    int n_ = 0;
  };

  struct Node {
    int kernel_id = -1;  // -1: concrete
    InsList ins;
    Shape shape;
    const float* data = nullptr;
    std::uint32_t batch = 0;  // batch_seq_ of the batch that wrote data (0: none)
    int depth = 0;
    int phase = 0;
    int instance = 0;
    std::uint32_t gen = 0;   // bumped when the slot is retired
    bool persist = false;    // persistent region: weights, cached constants
  };
  static_assert(std::is_trivially_copyable_v<Node>);

  // The node table (DESIGN.md §5): fixed chunks of kChunkNodes nodes, a
  // power of two so that id → (chunk, slot) is a shift and a mask. A
  // recorded node never moves: the table grows one chunk at a time, and its
  // chunks go back to the block cache, warm for the next engine, when the
  // engine dies. kChunkBytes (60 KB) is a size class no other block-cache
  // owner asks for, so only a node table reuses a chunk. The chunk
  // directory is a block-cache block too, one page (512 chunks) first,
  // so growing the table makes no heap allocation.
  class NodeTable {
   public:
    static constexpr std::size_t kChunkNodes =
        std::bit_floor(block_cache::kMinClassBytes / sizeof(Node));
    static constexpr std::size_t kChunkBytes = kChunkNodes * sizeof(Node);
    static constexpr std::size_t kDirFirstBytes = 4096;
    NodeTable() = default;
    NodeTable(const NodeTable&) = delete;
    NodeTable& operator=(const NodeTable&) = delete;
    ~NodeTable();
    std::size_t size() const { return size_; }
    Node& operator[](std::size_t id) { return chunks_[id / kChunkNodes][id % kChunkNodes]; }
    const Node& operator[](std::size_t id) const {
      return chunks_[id / kChunkNodes][id % kChunkNodes];
    }
    // Appends a copy of `n` and returns its id.
    std::uint32_t push_back(const Node& n) {
      if (size_ == n_chunks_ * kChunkNodes) add_chunk();
      ::new (&(*this)[size_]) Node(n);
      return static_cast<std::uint32_t>(size_++);
    }

   private:
    void add_chunk();
    Node** chunks_ = nullptr;  // the directory: dir_cap_ entries, n_chunks_ used
    std::size_t n_chunks_ = 0, dir_cap_ = 0;
    std::size_t size_ = 0;
  };

  // Generation-checked accessors: a stale ref (slot retired or reissued
  // since hand-out) aborts loudly in debug instead of aliasing whatever
  // request owns the slot now. Internal scheduler loops index `nodes_` by
  // raw pending ids, which are live by construction.
  void check_ref(TRef r) const;
  Node& node(TRef r) {
    check_ref(r);
    return nodes_[r.id];
  }
  const Node& node(TRef r) const {
    check_ref(r);
    return nodes_[r.id];
  }
  TRef record_op(int kernel_id, const TRef* ins, int n_ins, const InstCtx& ctx, int phase);
  TRef alloc_node(const Node& n, bool reusable_slot);
  // Recycling internals shared by retire_request and session_step: retire
  // the instance's node span (slots → free list, generations bumped) and
  // reclaim arena pages older than every live request's admission epoch.
  void retire_span(int instance);
  void reclaim_arena_pages();
  // session_step's recycle-mode checkpoint: copy the state out of the arena
  // into the session's buffer, retire the step's span, re-stamp the session
  // at the current epoch, and return a fresh depth-0 node over the buffer.
  TRef checkpoint_state(TRef state, int instance);
  void execute_batch(int kernel_id, const std::vector<std::uint32_t>& ids, bool merge_launch);
  // Flat/stacked fast paths (DESIGN.md §4 "Flat elementwise execution"):
  // collapse n same-kernel ops into one run_op call when inputs line up.
  // Both return false to fall back to the op-at-a-time loop.
  bool try_execute_flat(const Kernel& k, const std::vector<std::uint32_t>& ids,
                        float* out_base);
  bool try_execute_stacked(const Kernel& k, const std::vector<std::uint32_t>& ids,
                           float* out_base);
  // kLinear batches: one run_linear call over per-row pointers (false when
  // the members do not share W and b).
  bool try_execute_linear(const Kernel& k, const std::vector<std::uint32_t>& ids,
                          float* out_base);
  // Explicit staging gather: copies operand `operand` of every batch member
  // (`step` floats each) into one contiguous arena buffer, charging
  // gather-copy time and bytes. charge_bytes may throw OomError.
  float* stage_gather(const std::vector<std::uint32_t>& ids, int operand,
                      std::int64_t step);
  void schedule_depth(std::vector<std::uint32_t>& pending);
  // Chain fusion: true when every member of batch `ids` of kernel `kid`,
  // whose chain is open, reads only values of its own shape written before
  // the chain's launch or by a batch of kid since.
  bool extends_chain(std::uint32_t kid, const std::vector<std::uint32_t>& ids) const;
  void schedule_agenda(std::vector<std::uint32_t>& pending);
  void recover_depths(const std::vector<std::uint32_t>& pending);
  void charge_bytes(std::size_t bytes);  // memory-cap accounting (OomError)
  void charge_launch();

  // --- allocation-free scheduling (DESIGN.md §5 "Scratch reuse") ---------
  // Dense-keyed bucket map reused across triggers: `index[key]` names a
  // slot in `lists`, `keys` records touched keys for ordered iteration and
  // O(touched) reset. Growth goes through scratch_reserve so the stats
  // counter sees every scheduler heap allocation.
  struct BucketScratch {
    std::vector<std::int32_t> index;                // key → slot, -1 empty
    std::vector<std::vector<std::uint32_t>> lists;  // slot → member ids
    std::vector<std::uint32_t> keys;                // touched keys
    std::size_t used = 0;                           // live slots
  };
  template <class T>
  void scratch_reserve(std::vector<T>& v, std::size_t need);
  void bucket_push(BucketScratch& b, std::uint32_t key, std::uint32_t id);
  void bucket_reset(BucketScratch& b);
  void reset_sched_scratch();  // exception path: drop partial trigger state

  const KernelRegistry& registry_;
  EngineConfig cfg_;
  EngineStats stats_;
  TensorPool arena_;
  // Persistent region under recycling: outputs of cached constant nodes
  // live here, outside the epoch protocol, because the const cache shares
  // them across requests of any epoch.
  TensorPool persist_arena_{1u << 12};  // small pages: a handful of constants
  NodeTable nodes_;
  std::vector<std::uint32_t> pending_;
  std::vector<ExecBatch> exec_log_;
  std::vector<TRef> const_cache_;  // const_reuse: kernel id → node, !ok() when none
  std::uint32_t batch_seq_ = 0;    // batches executed; never 0 after the first
  // fuse_chains, per kernel id: batch_seq_ of the launch its chain runs in
  // (0: none), and whether its batch in the current wave is a chain step.
  struct Chain {
    std::uint32_t launch = 0;
    bool step = false;
  };
  std::vector<Chain> chains_;
  std::vector<std::shared_ptr<std::string>> boxed_;  // boxed_dfg allocations
  FiberScheduler* fibers_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  std::function<void()> admission_hook_;
  std::size_t live_bytes_ = 0;
  bool in_trigger_ = false;
  bool in_admission_ = false;
  // --- recycling state (empty when cfg_.recycle is off)
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<int, std::vector<std::uint32_t>> request_nodes_;  // instance → span
  // Retired requests donate their span vectors here; the next admission
  // adopts one, so steady-state recording reuses warm capacity instead of
  // re-growing a fresh vector per request (pool growth counts into
  // stats_.scheduling_allocs like every other engine-owned buffer).
  std::vector<std::vector<std::uint32_t>> req_span_pool_;
  std::unordered_map<int, std::uint64_t> live_requests_;  // instance → admission epoch
  std::uint64_t epoch_ = 0;  // advances at the end of every trigger
  std::size_t live_nodes_peak_ = 0;
  long long nodes_recycled_ = 0;
  long long leaked_slots_ = 0;
  // --- per-session persistent state (session_step; empty without decode)
  struct SessionBuf {
    std::unique_ptr<float[]> data;
    std::size_t cap = 0;  // floats; always 1 << class for pooled buffers
  };
  // Buffers are pooled by power-of-two size class (min 16 floats), not in a
  // single LIFO: sessions checkpoint *growing*, variable-size state, and a
  // flat pool both strands large buffers behind small ones and leaks the
  // old buffer on every mid-session growth. With classes, a grown session
  // returns its old buffer to its class and adopts (or allocates) from the
  // next, so bytes-ever-allocated plateaus at peak concurrency × the class
  // ladder even when every session's state grows per token.
  static constexpr int kSessionBufClasses = 24;
  // Ceil-log2 class, floor 16 floats. May exceed the pool array (giant
  // states); such buffers share the top pool, which is why adoption
  // re-checks cap — every class below the top holds exactly 1 << cls.
  static int session_buf_class(std::size_t numel) {
    int cls = 4;  // 1 << 4 == 16 floats minimum
    while ((std::size_t{1} << cls) < numel) ++cls;
    return cls;
  }
  static std::size_t session_buf_pool_index(int cls) {
    return static_cast<std::size_t>(
        cls < kSessionBufClasses ? cls : kSessionBufClasses - 1);
  }
  void pool_session_buf(SessionBuf&& buf);
  std::unordered_map<int, SessionBuf> session_bufs_;  // instance → kept state
  std::array<std::vector<SessionBuf>, kSessionBufClasses> session_buf_pool_;
  std::size_t session_bufs_peak_ = 0;
  std::size_t session_floats_allocated_ = 0;
  StepHook step_hook_;

  // --- scheduler scratch, reused across triggers (zero steady-state heap
  // traffic; growth events count into stats_.scheduling_allocs)
  BucketScratch phase_buckets_;  // phase → pending ids
  BucketScratch depth_buckets_;  // depth*K + kernel → pending ids (phase 0)
  BucketScratch wave_buckets_;   // kernel → ready ids (phase > 0 waves)
  std::vector<std::uint32_t> wave_todo_, wave_rest_;
  std::vector<std::uint32_t> trigger_scratch_;  // pending_ swap buffer
  std::vector<float*> outs_scratch_;            // per-batch output cursors
  std::vector<const float*> linear_rows_[2];    // kLinear x / h row pointers
  std::vector<std::uint32_t> eager_scratch_;    // eager mode's 1-op batch
  // Agenda-scheduler scratch: per-node stamp/rank (stamped, so no O(table)
  // clears) plus per-pending remaining counts and a consumers CSR.
  std::vector<std::uint32_t> agenda_stamp_, agenda_rank_, agenda_order_;
  std::uint32_t agenda_gen_ = 0;
  std::vector<int> agenda_remaining_;
  std::vector<std::uint32_t> agenda_cons_off_, agenda_cons_cur_, agenda_cons_;
  std::vector<std::uint32_t> agenda_batch_;  // the class being executed
  struct ReadyClass {
    std::uint64_t sig;
    std::uint32_t list;  // slot in ready_pool_
  };
  std::vector<ReadyClass> ready_classes_;  // sig-ascending (map iteration order)
  std::vector<std::vector<std::uint32_t>> ready_pool_;
  std::vector<std::uint32_t> ready_free_;
};

}  // namespace acrobat
