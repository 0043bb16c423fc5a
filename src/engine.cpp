#include "engine/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "runtime/fiber.h"
#include "trace/trace.h"

namespace acrobat {
namespace {

// Matmul-family ops are the ones DyNet's default heuristic batches only per
// shared parameter operand (Table 7's "first-argument" keying).
bool matmul_family(OpKind op) {
  return op == OpKind::kDense || op == OpKind::kMatMul;
}

// Kinds whose output element i reads only element i of each operand when
// every operand has the output's shape: the kinds try_execute_flat
// concatenates element by element, less kSoftmax (whole rows) and kZeros
// (no operand). Only these may chain (DESIGN.md §5 "Chains").
bool elementwise(OpKind op) {
  switch (op) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kTanh:
    case OpKind::kSigmoid:
    case OpKind::kScale:
    case OpKind::kAddBiasTanh:
    case OpKind::kAddBiasSigmoid:
    case OpKind::kFma2:
    case OpKind::kMulTanh:
      return true;
    default:
      return false;
  }
}

}  // namespace

// ------------------------------------------------------------ scratch reuse

template <class T>
void Engine::scratch_reserve(std::vector<T>& v, std::size_t need) {
  if (need <= v.capacity()) return;
  // Explicit doubling (not the stdlib's policy) so the alloc count is
  // deterministic across toolchains — CI diffs it against a golden.
  std::size_t cap = v.capacity() == 0 ? 16 : v.capacity() * 2;
  if (cap < need) cap = need;
  v.reserve(cap);
  ++stats_.scheduling_allocs;
}

void Engine::bucket_push(BucketScratch& b, std::uint32_t key, std::uint32_t id) {
  if (key >= b.index.size()) {
    scratch_reserve(b.index, static_cast<std::size_t>(key) + 1);
    b.index.resize(static_cast<std::size_t>(key) + 1, -1);
  }
  std::int32_t slot = b.index[key];
  if (slot < 0) {
    if (b.used == b.lists.size()) {
      scratch_reserve(b.lists, b.used + 1);
      b.lists.emplace_back();
    }
    slot = static_cast<std::int32_t>(b.used++);
    b.index[key] = slot;
    scratch_reserve(b.keys, b.keys.size() + 1);
    b.keys.push_back(key);
  }
  std::vector<std::uint32_t>& lst = b.lists[static_cast<std::size_t>(slot)];
  scratch_reserve(lst, lst.size() + 1);
  lst.push_back(id);
}

void Engine::bucket_reset(BucketScratch& b) {
  for (const std::uint32_t key : b.keys) {
    b.lists[static_cast<std::size_t>(b.index[key])].clear();
    b.index[key] = -1;
  }
  b.keys.clear();
  b.used = 0;
}

void Engine::reset_sched_scratch() {
  bucket_reset(phase_buckets_);
  bucket_reset(depth_buckets_);
  bucket_reset(wave_buckets_);
  wave_todo_.clear();
  wave_rest_.clear();
  agenda_batch_.clear();
  ready_classes_.clear();
  ready_free_.clear();
  for (std::size_t i = 0; i < ready_pool_.size(); ++i) {
    ready_pool_[i].clear();
    ready_free_.push_back(static_cast<std::uint32_t>(i));
  }
}

Engine::Engine(const KernelRegistry& registry, EngineConfig cfg)
    : registry_(registry), cfg_(cfg) {
  stats_.kernel_invocations.assign(registry.num_kernels(), 0);
  const_cache_.resize(registry.num_kernels());
  if (cfg_.fuse_chains) chains_.resize(registry.num_kernels());
  assert((!cfg_.recycle || cfg_.lazy) && "recycling requires lazy recording");
}

Engine::NodeTable::~NodeTable() {
  // Last chunk first: the cache hands blocks out last in, first out, so the
  // next engine's chunk i is this one's chunk i, its pages already touched.
  for (std::size_t c = n_chunks_; c > 0; --c) block_cache::give(chunks_[c - 1], kChunkBytes);
  block_cache::give(chunks_, dir_cap_ * sizeof(Node*));
}

void Engine::NodeTable::add_chunk() {
  if (n_chunks_ == dir_cap_) {
    // The directory grows by moving to a block twice the size, one page first.
    const std::size_t bytes = dir_cap_ == 0 ? kDirFirstBytes : 2 * dir_cap_ * sizeof(Node*);
    Node** const bigger = static_cast<Node**>(block_cache::take(bytes));
    if (n_chunks_ > 0) std::memcpy(bigger, chunks_, n_chunks_ * sizeof(Node*));
    block_cache::give(chunks_, dir_cap_ * sizeof(Node*));
    chunks_ = bigger;
    dir_cap_ = bytes / sizeof(Node*);
  }
  chunks_[n_chunks_++] = static_cast<Node*>(block_cache::take(kChunkBytes));
}

void Engine::check_ref(TRef r) const {
#ifndef NDEBUG
  if (r.id >= nodes_.size() || nodes_[r.id].gen != r.gen) {
    std::fprintf(stderr,
                 "acrobat: stale TRef deref: id=%u gen=%u, slot gen=%u (table size %zu) — "
                 "ref outlived its request's epoch\n",
                 r.id, r.gen, r.id < nodes_.size() ? nodes_[r.id].gen : 0u, nodes_.size());
    std::abort();
  }
#else
  (void)r;
#endif
}

TRef Engine::alloc_node(const Node& n, bool reusable_slot) {
  const bool track = cfg_.recycle && reusable_slot;
  TRef ref;
  if (track && !free_slots_.empty()) {
    ref.id = free_slots_.back();
    free_slots_.pop_back();
    Node& slot = nodes_[ref.id];
    ref.gen = slot.gen;  // already bumped at retirement
    slot = n;
    slot.gen = ref.gen;
  } else {
    ref.id = nodes_.push_back(n);
    ref.gen = n.gen;
  }
  if (track) {
    std::vector<std::uint32_t>& span = request_nodes_[n.instance];
    // A fresh entry adopts a retired request's warm vector when one is
    // pooled — steady-state recording then never re-grows span storage.
    if (span.capacity() == 0 && !req_span_pool_.empty()) {
      span = std::move(req_span_pool_.back());
      req_span_pool_.pop_back();
    }
    span.push_back(ref.id);
  }
  if (cfg_.recycle && live_nodes() > live_nodes_peak_) live_nodes_peak_ = live_nodes();
  return ref;
}

TRef Engine::add_concrete(TensorView v) {
  Node n;
  n.data = v.data;
  n.shape = v.shape;
  n.persist = true;
  return alloc_node(n, /*reusable_slot=*/false);
}

TRef Engine::add_op(int kernel_id, const TRef* ins, int n_ins, const InstCtx& ctx, int phase) {
  TRef ref;
  {
    // Timer scope covers recording only — eager-mode execution below charges
    // its own kernel/launch buckets.
    ScopedTimer timer(stats_.dfg_construction, cfg_.time_activities);
    ref = record_op(kernel_id, ins, n_ins, ctx, phase);
  }
  if (!cfg_.lazy && !materialized(ref)) {
    // Eager baseline: one launch per op, recorded and executed in place.
    eager_scratch_.clear();
    scratch_reserve(eager_scratch_, 1);
    eager_scratch_.push_back(ref.id);
    pending_.pop_back();
    execute_batch(kernel_id, eager_scratch_, /*merge_launch=*/false);
  }
  return ref;
}

TRef Engine::record_op(int kernel_id, const TRef* ins, int n_ins, const InstCtx& ctx,
                       int phase) {
  const Kernel& k = registry_.kernel(kernel_id);
  const bool cached_const = cfg_.const_reuse && n_ins == 0;

  if (cached_const) {
    // Static hoisting of constant nodes (e.g. TreeLSTM leaf zero states):
    // the compiler derives this for free; DyNet only gets it with the
    // hand-improved heuristics (Table 7).
    const TRef hit = const_cache_[static_cast<std::size_t>(kernel_id)];
    if (hit.ok()) return hit;
  }

  // A malformed compiled program faults loudly in every build: phases are
  // dense scheduler bucket keys, so a negative tag would cast to a ~4G
  // index, and a node holds at most kMaxIns inputs.
  if (phase < 0) {
    std::fprintf(stderr, "acrobat: negative program phase tag %d on kernel %s\n", phase,
                 k.name.c_str());
    std::abort();
  }
  if (n_ins > kMaxIns) {
    std::fprintf(stderr, "acrobat: kernel %s recorded with %d inputs, more than %d\n",
                 k.name.c_str(), n_ins, kMaxIns);
    std::abort();
  }

  if (cfg_.boxed_dfg) {
    // DyNet-style dynamic DFG construction: a boxed per-node signature
    // object built with string formatting — the per-node cost Table 6's
    // "DFG construction" row measures.
    std::string sig;
    sig.reserve(64);
    sig += k.name;
    for (int i = 0; i < n_ins; ++i) {
      sig += ':';
      sig += std::to_string(node(ins[i]).shape.numel());
    }
    sig += '@';
    sig += std::to_string(ctx.instance);
    boxed_.push_back(std::make_shared<std::string>(std::move(sig)));
  }

  // Phase tags must not decrease along a dependency while the depth
  // scheduler honours them: phases run in order, so an op reading a pending
  // node of a later phase would run first, on a null operand (phase 0), or
  // wait forever (a readiness wave).
  const bool phased = cfg_.phases && cfg_.scheduler == SchedulerKind::kDepth;
  Shape in_shapes[kMaxIns];
  int depth = 0;
  for (int i = 0; i < n_ins; ++i) {
    const Node& in = node(ins[i]);
    if (phased && in.phase > phase && in.data == nullptr) {
      std::fprintf(stderr,
                   "acrobat: phase-%d kernel %s reads a pending phase-%d node; phase tags "
                   "must not decrease along a dependency\n",
                   phase, k.name.c_str(), in.phase);
      std::abort();
    }
    in_shapes[i] = in.shape;
    depth = std::max(depth, in.depth);
  }

  Node n;
  n.kernel_id = kernel_id;
  n.ins.assign(ins, n_ins);
  n.shape = infer_shape(k.op, k.attr, in_shapes, n_ins);
  n.depth = depth + 1;  // inline depth computation: maintained at record time
  n.phase = phase;
  n.instance = ctx.instance;
  // Cached constants are shared across requests of any epoch, so under
  // recycling they join the persistent region: the slot is never retired
  // and execute_batch materializes them into the persistent arena.
  n.persist = cfg_.recycle && cached_const;
  const TRef ref = alloc_node(n, /*reusable_slot=*/!n.persist);
  pending_.push_back(ref.id);
  if (cached_const) const_cache_[static_cast<std::size_t>(kernel_id)] = ref;
  return ref;
}

void Engine::begin_request(int instance) {
  if (!cfg_.recycle) return;
  live_requests_.emplace(instance, epoch_);
}

void Engine::retire_span(int instance) {
  const auto span = request_nodes_.find(instance);
  if (span == request_nodes_.end()) return;
  for (const std::uint32_t id : span->second) {
    Node& n = nodes_[id];
    // A retired request's ops were all executed by its completing trigger;
    // a still-pending node here would alias its reused slot later. Debug
    // builds abort; Release builds must abandon the slot (it can never be
    // reissued safely) and COUNT the leak — MemoryStats::leaked_slots
    // surfaces it in the soak gauges instead of hiding a growing table.
    assert(n.data != nullptr && "retiring a request with pending ops");
    if (n.data == nullptr) {
      ++leaked_slots_;
      continue;
    }
    ++n.gen;  // stale refs now fault in debug
    n.data = nullptr;
    n.kernel_id = -1;
    n.ins.clear();
    free_slots_.push_back(id);
    ++nodes_recycled_;
  }
  span->second.clear();
  scratch_reserve(req_span_pool_, req_span_pool_.size() + 1);
  req_span_pool_.push_back(std::move(span->second));
  request_nodes_.erase(span);
}

void Engine::reclaim_arena_pages() {
  // Epoch reclamation: a page is dead once every request admitted at or
  // before its last allocation epoch has retired — later requests only read
  // their own (younger) nodes plus the persistent region.
  std::uint64_t min_live = epoch_;
  for (const auto& [inst, admitted] : live_requests_)
    min_live = std::min(min_live, admitted);
  arena_.reclaim_before(min_live);
}

void Engine::pool_session_buf(SessionBuf&& buf) {
  if (buf.data == nullptr) return;
  session_buf_pool_[session_buf_pool_index(session_buf_class(buf.cap))]
      .push_back(std::move(buf));
}

void Engine::retire_request(int instance) {
  if (!cfg_.recycle) return;
  retire_span(instance);
  live_requests_.erase(instance);
  const auto sb = session_bufs_.find(instance);
  if (sb != session_bufs_.end()) {
    // The session's kept-state buffer returns to its size-class pool with
    // capacity intact; the next session needing that class adopts it.
    pool_session_buf(std::move(sb->second));
    session_bufs_.erase(sb);
  }
  reclaim_arena_pages();
}

TRef Engine::checkpoint_state(TRef state, int instance) {
  const Node& src = node(state);
  // The step's sync already completed a trigger, so every node the step
  // recorded — including the carried state — is materialized.
  assert(src.data != nullptr && "session_step before the step's sync");
  const Shape shape = src.shape;
  const std::size_t numel = static_cast<std::size_t>(shape.numel());
  SessionBuf& buf = session_bufs_[instance];
  if (buf.cap < numel) {
    // Growth path: the outgrown buffer goes back to its class pool before
    // the session adopts from the target class — mid-session growth swaps
    // classes instead of leaking the old allocation, so a cohort of growing
    // sessions cycles one ladder of buffers per concurrency slot.
    if (buf.data != nullptr) pool_session_buf(std::move(buf));
    const int cls = session_buf_class(numel);
    std::vector<SessionBuf>& pool = session_buf_pool_[session_buf_pool_index(cls)];
    if (!pool.empty() && pool.back().cap >= numel) {
      buf = std::move(pool.back());
      pool.pop_back();
    } else {
      const std::size_t cap = std::size_t{1} << cls;
      buf.data.reset(new float[cap]);
      buf.cap = cap;
      session_floats_allocated_ += cap;
    }
  }
  std::memcpy(buf.data.get(), src.data, numel * sizeof(float));
  if (session_bufs_.size() > session_bufs_peak_) session_bufs_peak_ = session_bufs_.size();
  // Retire the step's transient nodes (the carried state's slot included —
  // its bits now live in the session buffer) and re-admit the session at
  // the current epoch, so arena pages the finished steps wrote become
  // reclaimable while the session is still live.
  retire_span(instance);
  live_requests_[instance] = epoch_;
  reclaim_arena_pages();
  // The kept state re-enters the graph as a depth-0 materialized node over
  // the session buffer: downstream steps see a constant input.
  Node n;
  n.shape = shape;
  n.data = buf.data.get();
  n.instance = instance;
  return alloc_node(n, /*reusable_slot=*/true);
}

Engine::StepResult Engine::session_step(TRef state, const InstCtx& ctx) {
  StepResult res;
  res.state = state;
  if (cfg_.recycle) res.state = checkpoint_state(state, ctx.instance);
  if (step_hook_) {
    for (;;) {
      const StepVerdict v = step_hook_(ctx.instance);
      if (v == StepVerdict::kStop) {
        res.cont = 0;
        break;
      }
      if (v == StepVerdict::kRun) break;
      assert(fibers_ != nullptr && fibers_->in_fiber() &&
             "StepVerdict::kPark outside a fiber");
      fibers_->park_current();
    }
  }
  return res;
}

Engine::MemoryStats Engine::memory() const {
  MemoryStats m;
  m.node_table_size = nodes_.size();
  m.live_nodes = live_nodes();
  m.live_nodes_peak = cfg_.recycle ? live_nodes_peak_ : nodes_.size();
  m.nodes_recycled = nodes_recycled_;
  m.arena_active_bytes = static_cast<std::size_t>(arena_.active_floats()) * sizeof(float);
  m.arena_high_water_bytes =
      static_cast<std::size_t>(arena_.high_water_floats()) * sizeof(float);
  m.arena_pages_recycled = arena_.pages_recycled();
  m.leaked_slots = leaked_slots_;
  m.persist_arena_high_water_bytes =
      static_cast<std::size_t>(persist_arena_.high_water_floats()) * sizeof(float);
  m.session_buffers_live = session_bufs_.size();
  m.session_buffers_peak = session_bufs_peak_;
  m.session_bytes_allocated = session_floats_allocated_ * sizeof(float);
  return m;
}

bool Engine::materialized(TRef r) const { return node(r).data != nullptr; }
const Shape& Engine::shape(TRef r) const { return node(r).shape; }
const float* Engine::data(TRef r) const { return node(r).data; }
int Engine::kernel_of(TRef r) const { return node(r).kernel_id; }
std::span<const TRef> Engine::inputs_of(TRef r) const {
  const Node& n = node(r);
  return {n.ins.begin(), n.ins.size()};
}

Tensor Engine::force(TRef r) {
  sync(r);
  Tensor t;
  t.data = const_cast<float*>(node(r).data);
  t.shape = node(r).shape;
  return t;
}

void Engine::sync(TRef r) {
  if (materialized(r)) return;
  if (fibers_ != nullptr && fibers_->in_fiber()) {
    // Suspend this instance; the scheduler triggers the engine once every
    // live instance is blocked, then resumes us.
    while (!materialized(r)) fibers_->block_current();
    return;
  }
  trigger_execution();
  assert(materialized(r));
}

float Engine::scalar(TRef r) {
  sync(r);
  return node(r).data[0];
}

void Engine::charge_bytes(std::size_t bytes) {
  live_bytes_ += bytes;
  if (cfg_.memory_cap_bytes == 0) return;
  // Under recycling, reclaimed pages leave the footprint, so the cap is
  // checked against live arena pages; the append-only path keeps the
  // cumulative counter (nothing is ever freed there).
  const std::size_t live =
      cfg_.recycle ? static_cast<std::size_t>(arena_.active_floats() +
                                              persist_arena_.active_floats()) *
                         sizeof(float)
                   : live_bytes_;
  if (live > cfg_.memory_cap_bytes) throw OomError{};
}

void Engine::charge_launch() {
  ++stats_.kernel_launches;
  if (cfg_.launch_overhead_ns > 0) {
    stats_.launch_overhead.add(cfg_.launch_overhead_ns);
    spin_ns(cfg_.launch_overhead_ns);
  }
}

void Engine::recover_depths(const std::vector<std::uint32_t>& pending) {
  // Dynamic depth recovery: the per-trigger graph traversal that inline
  // depth computation eliminates (paper §4.1). Pending ids are recorded in
  // topological order, so one forward pass suffices.
  for (const std::uint32_t id : pending) {
    Node& n = nodes_[id];
    int depth = 0;
    for (const TRef in : n.ins) {
      const Node& src = node(in);
      if (src.data == nullptr) depth = std::max(depth, src.depth);
    }
    n.depth = depth + 1;
  }
}

void Engine::schedule_depth(std::vector<std::uint32_t>& pending) {
  std::int64_t t0 = now_ns();
  if (!cfg_.inline_depth) recover_depths(pending);

  // Phases run strictly in order; within phase 0 batches are the static
  // (depth, kernel) buckets inline depth computation makes free. Phase-
  // tagged nodes (phase > 0) are scheduled by readiness waves keyed on
  // kernel alone — that is what lets e.g. per-instance root classifiers
  // sitting at different tree depths share one launch. Builders keep
  // dependencies monotone in phase.
  //
  // All grouping state lives in engine-owned scratch reused across
  // triggers: dense-keyed buckets plus a sort of the (small) touched-key
  // list reproduce the old std::map's ascending iteration order with zero
  // steady-state heap traffic.
  const std::uint32_t K = static_cast<std::uint32_t>(registry_.num_kernels());
  for (const std::uint32_t id : pending)
    bucket_push(phase_buckets_,
                cfg_.phases ? static_cast<std::uint32_t>(nodes_[id].phase) : 0u, id);
  std::sort(phase_buckets_.keys.begin(), phase_buckets_.keys.end());

  // Runs one batch, inside an earlier launch when `merge` (Cortex's one
  // launch per depth wave) or `step` (it extends its kernel's chain). Under
  // fuse_chains any other launch of an elementwise kernel opens that
  // kernel's chain. The batches and their order are the plain schedule's
  // either way: only the launch a batch is charged to changes (DESIGN.md §5
  // "Chains").
  std::uint32_t group = 0;  // batch_seq_ before this phase group: older chains are closed
  const auto run = [&](std::uint32_t kid, const std::vector<std::uint32_t>& ids, bool merge,
                       bool step) {
    const int kernel = static_cast<int>(kid);
    execute_batch(kernel, ids, merge || step);
    if (cfg_.fuse_chains && !step)
      chains_[kid].launch = !merge && elementwise(registry_.kernel(kernel).op) ? batch_seq_ : 0;
  };

  for (const std::uint32_t phase : phase_buckets_.keys) {
    std::vector<std::uint32_t>& ids =
        phase_buckets_.lists[static_cast<std::size_t>(phase_buckets_.index[phase])];
    group = batch_seq_;
    if (phase == 0) {
      for (const std::uint32_t id : ids)
        bucket_push(depth_buckets_,
                    static_cast<std::uint32_t>(nodes_[id].depth) * K +
                        static_cast<std::uint32_t>(nodes_[id].kernel_id),
                    id);
      // key = depth*K + kernel, so ascending keys == the old ascending
      // (depth, kernel) pair order.
      std::sort(depth_buckets_.keys.begin(), depth_buckets_.keys.end());
      if (cfg_.time_activities) stats_.scheduling.add(now_ns() - t0);
      std::uint32_t last_depth = 0xffffffffu;
      for (const std::uint32_t key : depth_buckets_.keys) {
        // Cortex persistent-kernel mode: batches in one depth wave share a
        // single launch.
        const std::uint32_t depth = key / K, kid = key % K;
        const bool merge = cfg_.fuse_waves && depth == last_depth;
        last_depth = depth;
        const std::vector<std::uint32_t>& batch =
            depth_buckets_.lists[static_cast<std::size_t>(depth_buckets_.index[key])];
        bool step = false;
        if (cfg_.fuse_chains && !merge && chains_[kid].launch > group) {
          ScopedTimer timer(stats_.scheduling, cfg_.time_activities);
          step = extends_chain(kid, batch);
        }
        run(kid, batch, merge, step);
      }
      bucket_reset(depth_buckets_);
      t0 = now_ns();
      continue;
    }
    scratch_reserve(wave_todo_, ids.size());
    wave_todo_.assign(ids.begin(), ids.end());
    while (!wave_todo_.empty()) {
      wave_rest_.clear();
      for (const std::uint32_t id : wave_todo_) {
        bool ready = true;
        for (const TRef in : nodes_[id].ins)
          if (node(in).data == nullptr) {
            ready = false;
            break;
          }
        if (ready) {
          bucket_push(wave_buckets_, static_cast<std::uint32_t>(nodes_[id].kernel_id), id);
        } else {
          scratch_reserve(wave_rest_, wave_rest_.size() + 1);
          wave_rest_.push_back(id);
        }
      }
      // Something is ready: only a pending input of a later phase could
      // block the whole wave, and record_op refuses to record one.
      assert(!wave_buckets_.keys.empty() && "phase wave with no ready node");
      std::sort(wave_buckets_.keys.begin(), wave_buckets_.keys.end());
      const auto wave_batch = [&](std::uint32_t kid) -> const std::vector<std::uint32_t>& {
        return wave_buckets_.lists[static_cast<std::size_t>(wave_buckets_.index[kid])];
      };
      // A wave's batches read only values materialized before it began, so
      // its chain steps are all decided here, on the scheduling clock.
      if (cfg_.fuse_chains)
        for (const std::uint32_t kid : wave_buckets_.keys)
          chains_[kid].step = chains_[kid].launch > group && extends_chain(kid, wave_batch(kid));
      if (cfg_.time_activities) stats_.scheduling.add(now_ns() - t0);
      for (const std::uint32_t kid : wave_buckets_.keys)
        run(kid, wave_batch(kid), false, cfg_.fuse_chains && chains_[kid].step);
      bucket_reset(wave_buckets_);
      t0 = now_ns();
      wave_todo_.swap(wave_rest_);
    }
  }
  bucket_reset(phase_buckets_);
  if (cfg_.time_activities) stats_.scheduling.add(now_ns() - t0);
}

// Every operand of a step is then either materialized before the chain's
// launch or the same element of an earlier step's output, so the launch
// splits into independent work per element index (DESIGN.md §5 "Chains").
// The kid test suffices for "an earlier step": every batch of kid since the
// launch either was one, or was a launch and moved chains_[kid].launch. Every
// elementwise kind's output has its first operand's shape, so only the
// others need the shape test.
bool Engine::extends_chain(std::uint32_t kid, const std::vector<std::uint32_t>& ids) const {
  const std::uint32_t launch = chains_[kid].launch;
  for (const std::uint32_t id : ids) {
    const Node& nd = nodes_[id];
    for (std::size_t j = 0; j < nd.ins.size(); ++j) {
      const Node& src = node(nd.ins[j]);
      if ((src.batch >= launch && src.kernel_id != static_cast<int>(kid)) ||
          (j > 0 && src.shape != nd.shape))
        return false;
    }
  }
  return true;
}

void Engine::schedule_agenda(std::vector<std::uint32_t>& pending) {
  // DyNet's agenda scheduler: maintain the set of ready nodes, repeatedly
  // launch the largest same-signature class. All bookkeeping is charged to
  // scheduling time — this is the dynamic analysis cost the paper's static
  // scheduling avoids. The bookkeeping itself runs over engine-owned
  // scratch (stamped per-node arrays + a consumers CSR + a sorted ready
  // vector), so even this baseline does zero steady-state heap allocation;
  // what it keeps paying is the per-trigger dependency analysis time.
  std::int64_t sched_ns = 0;
  std::int64_t t0 = now_ns();
  const std::size_t n = pending.size();

  // Pending membership + dense rank per node id. Stamps avoid O(table)
  // clears; rank indexes the per-pending arrays below.
  ++agenda_gen_;
  scratch_reserve(agenda_stamp_, nodes_.size());
  agenda_stamp_.resize(nodes_.size(), 0);
  scratch_reserve(agenda_rank_, nodes_.size());
  agenda_rank_.resize(nodes_.size());
  // Ascending-id order reproduces the old std::map's initial ready fill.
  scratch_reserve(agenda_order_, n);
  agenda_order_.assign(pending.begin(), pending.end());
  std::sort(agenda_order_.begin(), agenda_order_.end());
  for (std::size_t i = 0; i < n; ++i) {
    agenda_stamp_[agenda_order_[i]] = agenda_gen_;
    agenda_rank_[agenda_order_[i]] = static_cast<std::uint32_t>(i);
  }
  const auto is_pending = [&](std::uint32_t id) {
    return id < agenda_stamp_.size() && agenda_stamp_[id] == agenda_gen_;
  };

  // remaining[rank] = unexecuted input count; consumers as a CSR over the
  // pending set, filled in recording order (the old per-input push order).
  scratch_reserve(agenda_remaining_, n);
  agenda_remaining_.assign(n, 0);
  scratch_reserve(agenda_cons_off_, n + 1);
  agenda_cons_off_.assign(n + 1, 0);
  for (const std::uint32_t id : pending) {
    for (const TRef in : nodes_[id].ins) {
      if (node(in).data == nullptr && is_pending(in.id)) {
        ++agenda_remaining_[agenda_rank_[id]];
        ++agenda_cons_off_[agenda_rank_[in.id] + 1];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) agenda_cons_off_[i + 1] += agenda_cons_off_[i];
  const std::size_t edges = agenda_cons_off_[n];
  scratch_reserve(agenda_cons_, edges);
  agenda_cons_.resize(edges);
  scratch_reserve(agenda_cons_cur_, n);
  agenda_cons_cur_.assign(agenda_cons_off_.begin(), agenda_cons_off_.end() - 1);
  for (const std::uint32_t id : pending) {
    for (const TRef in : nodes_[id].ins) {
      if (node(in).data == nullptr && is_pending(in.id))
        agenda_cons_[agenda_cons_cur_[agenda_rank_[in.id]]++] = id;
    }
  }

  // Signature: kernel id, plus the parameter operand when the heuristic is
  // not shape-keyed (DyNet's default batches matmuls only per shared
  // parameter — MV-RNN's per-node matrices then never batch, Table 7).
  auto signature = [&](std::uint32_t id) -> std::uint64_t {
    const Node& nd = nodes_[id];
    const OpKind op = registry_.kernel(nd.kernel_id).op;
    std::uint64_t sig = static_cast<std::uint64_t>(nd.kernel_id) << 32;
    if (!cfg_.shape_keyed_batching && matmul_family(op) && nd.ins.size() >= 2)
      sig |= nd.ins[1].id;
    return sig;
  };

  // Ready classes kept sig-ascending (the old map iteration order); lists
  // come from a reusable pool.
  ready_classes_.clear();
  ready_free_.clear();
  scratch_reserve(ready_free_, ready_pool_.size());
  for (std::size_t i = ready_pool_.size(); i > 0; --i)
    ready_free_.push_back(static_cast<std::uint32_t>(i - 1));
  const auto ready_push = [&](std::uint32_t id) {
    const std::uint64_t sig = signature(id);
    auto it = std::lower_bound(
        ready_classes_.begin(), ready_classes_.end(), sig,
        [](const ReadyClass& rc, std::uint64_t s) { return rc.sig < s; });
    if (it == ready_classes_.end() || it->sig != sig) {
      std::uint32_t slot;
      if (ready_free_.empty()) {
        scratch_reserve(ready_pool_, ready_pool_.size() + 1);
        ready_pool_.emplace_back();
        slot = static_cast<std::uint32_t>(ready_pool_.size() - 1);
      } else {
        slot = ready_free_.back();
        ready_free_.pop_back();
      }
      const std::size_t pos = static_cast<std::size_t>(it - ready_classes_.begin());
      scratch_reserve(ready_classes_, ready_classes_.size() + 1);  // invalidates it
      it = ready_classes_.insert(ready_classes_.begin() + static_cast<std::ptrdiff_t>(pos),
                                 ReadyClass{sig, slot});
    }
    std::vector<std::uint32_t>& lst = ready_pool_[it->list];
    scratch_reserve(lst, lst.size() + 1);
    lst.push_back(id);
  };
  for (const std::uint32_t id : agenda_order_)
    if (agenda_remaining_[agenda_rank_[id]] == 0) ready_push(id);

  while (!ready_classes_.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready_classes_.size(); ++i)
      if (ready_pool_[ready_classes_[i].list].size() >
          ready_pool_[ready_classes_[best].list].size())
        best = i;
    const std::uint32_t slot = ready_classes_[best].list;
    ready_classes_.erase(ready_classes_.begin() + static_cast<std::ptrdiff_t>(best));
    // Swap the class out: ready_push below may grow the pool, and the
    // executing batch must not dangle into it.
    agenda_batch_.clear();
    agenda_batch_.swap(ready_pool_[slot]);
    scratch_reserve(ready_free_, ready_free_.size() + 1);
    ready_free_.push_back(slot);

    sched_ns += now_ns() - t0;
    execute_batch(nodes_[agenda_batch_[0]].kernel_id, agenda_batch_,
                  /*merge_launch=*/false);
    t0 = now_ns();

    for (const std::uint32_t id : agenda_batch_) {
      const std::uint32_t r = agenda_rank_[id];
      for (std::uint32_t e = agenda_cons_off_[r]; e < agenda_cons_off_[r + 1]; ++e) {
        const std::uint32_t c = agenda_cons_[e];
        if (--agenda_remaining_[agenda_rank_[c]] == 0) ready_push(c);
      }
    }
  }
  sched_ns += now_ns() - t0;
  if (cfg_.time_activities) stats_.scheduling.add(sched_ns);
}

void Engine::trigger_execution() {
  if (in_trigger_) return;
  if (admission_hook_ && !in_admission_) {
    // Last-call admission: requests that arrived while instances were
    // recording get their ops into this trigger's pending set, so old and
    // new requests share the same batches.
    in_admission_ = true;
    try {
      admission_hook_();
    } catch (...) {
      in_admission_ = false;
      throw;
    }
    in_admission_ = false;
  }
  if (pending_.empty()) return;
  in_trigger_ = true;
  std::int64_t trace_t0 = 0;
  ACROBAT_TRACE(tracer_, trace_t0 = tracer_->now());
  // Double-buffer the pending list: the swapped-out buffer is reused next
  // trigger, so the swap itself never allocates in steady state.
  trigger_scratch_.clear();
  trigger_scratch_.swap(pending_);
  const auto trace_ops = static_cast<std::int32_t>(trigger_scratch_.size());
  try {
    std::int64_t sched_t0 = 0;
    ACROBAT_TRACE(tracer_, sched_t0 = tracer_->now());
    if (cfg_.scheduler == SchedulerKind::kAgenda) {
      schedule_agenda(trigger_scratch_);
    } else {
      schedule_depth(trigger_scratch_);
    }
    ACROBAT_TRACE(tracer_,
                  tracer_->span(trace::EventKind::kSchedule, sched_t0, trace_ops));
  } catch (...) {
    in_trigger_ = false;  // keep the engine usable after a caught OOM
    reset_sched_scratch();
    throw;
  }
  in_trigger_ = false;
  if (cfg_.recycle) {
    // One batching iteration = one epoch: requests admitted from here on
    // can never reference pages last written in this trigger or earlier
    // (their inputs are their own nodes plus the persistent region).
    ++epoch_;
    arena_.set_epoch(epoch_);
  }
  ACROBAT_TRACE(tracer_, {
    tracer_->span(trace::EventKind::kTrigger, trace_t0, trace_ops);
    tracer_->counter(static_cast<std::int32_t>(live_nodes()),
                     static_cast<std::int64_t>(memory().arena_active_bytes));
  });
}

float* Engine::stage_gather(std::span<const std::uint32_t> ids, int operand, std::int64_t step) {
  const std::size_t n = ids.size();
  ScopedTimer timer(stats_.gather_copy, cfg_.time_activities);
  float* staged = arena_.alloc_raw(static_cast<std::int64_t>(n) * step);
  for (std::size_t i = 0; i < n; ++i)
    std::memcpy(staged + static_cast<std::int64_t>(i) * step,
                node(nodes_[ids[i]].ins[static_cast<std::size_t>(operand)]).data,
                sizeof(float) * static_cast<std::size_t>(step));
  stats_.gather_bytes += static_cast<long long>(n) * step *
                         static_cast<long long>(sizeof(float));
  ACROBAT_TRACE(tracer_,
                tracer_->instant(trace::EventKind::kGather,
                                 static_cast<std::int32_t>(n), operand,
                                 static_cast<std::int64_t>(n) * step *
                                     static_cast<std::int64_t>(sizeof(float))));
  charge_bytes(static_cast<std::size_t>(n) * static_cast<std::size_t>(step) *
               sizeof(float));
  return staged;
}

// A batch of row-vector matmul-family ops sharing their parameter operand
// (first-argument keying, paper §4) runs as ONE stacked (n×k)·W call when
// the rows sit back-to-back in the arena — or after one explicit staging
// gather when they do not and gather fusion is off (DyNet-style). Rows are
// independent in every matmul variant, so the stacked call is bitwise-
// identical to n per-op calls.
bool Engine::try_execute_stacked(const Kernel& k, std::span<const std::uint32_t> ids,
                                 float* out_base) {
  const std::size_t n = ids.size();
  const Node& head = nodes_[ids[0]];
  if (head.ins.size() < 2) return false;
  const TRef w = head.ins[1];
  const std::int64_t kdim = node(head.ins[0]).shape.numel();
  for (const std::uint32_t id : ids) {
    const Node& nd = nodes_[id];
    if (nd.ins[1].id != w.id || node(nd.ins[0]).shape.ndim != 1 ||
        node(nd.ins[0]).shape.numel() != kdim)
      return false;
  }
  const float* first = node(head.ins[0]).data;
  bool contiguous = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (node(nodes_[ids[i]].ins[0]).data != first + static_cast<std::int64_t>(i) * kdim) {
      contiguous = false;
      break;
    }
  }
  const float* x_stacked = nullptr;
  if (contiguous) {
    x_stacked = first;
  } else if (!cfg_.gather_fusion) {
    x_stacked = stage_gather(ids, /*operand=*/0, kdim);
  }
  if (x_stacked == nullptr) return false;
  ScopedTimer timer(stats_.kernel_exec, cfg_.time_activities);
  const Shape xs(static_cast<int>(n), static_cast<int>(kdim));
  const Shape os(static_cast<int>(n), static_cast<int>(head.shape.numel()));
  const float* ins[2] = {x_stacked, node(w).data};
  const Shape shapes[2] = {xs, node(w).shape};
  run_op(k.op, k.variant, ins, shapes, out_base, os, k.attr);
  return true;
}

// A batch of kLinear ops sharing (W, b) runs as ONE run_linear call over
// per-row operand pointers (gather fusion, DESIGN.md §4): each row's x and
// h are read wherever they live, so the cell's concat is never
// materialized and scattered rows need no staging. With gather fusion off,
// a scattered activation operand is first staged into one contiguous
// buffer, as the stacked dense path does; staging copies whole rows, so an
// LSTM state keeps the c half its epilogue reads. Rows are independent, so
// the call is bitwise-identical to n per-op calls.
bool Engine::try_execute_linear(const Kernel& k, std::span<const std::uint32_t> ids,
                                float* out_base) {
  const std::size_t n = ids.size();
  const Node& head = nodes_[ids[0]];
  const std::size_t arity = head.ins.size();
  const int n_act = static_cast<int>(arity) - 2;  // x; x and h; or x, h1 and h2
  const int m = node(head.ins[0]).shape.rows();   // rows per op
  // Row strides, and where each operand's rows would start if the batch's
  // operands lay back to back.
  int stride[3] = {0, 0, 0};
  const float* base[3] = {nullptr, nullptr, nullptr};
  bool contig[3] = {true, true, true};
  for (int j = 0; j < n_act; ++j) {
    const Node& src = node(head.ins[static_cast<std::size_t>(j)]);
    stride[j] = src.shape.cols();
    base[j] = src.data;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Node& nd = nodes_[ids[i]];
    if (nd.ins.size() != arity) return false;
    for (int j = 0; j < n_act; ++j) {
      const Node& src = node(nd.ins[static_cast<std::size_t>(j)]);
      if (src.shape.rows() != m || src.shape.cols() != stride[j]) return false;
      if (src.data != base[j] + static_cast<std::int64_t>(i) * m * stride[j]) contig[j] = false;
    }
  }

  const std::size_t rows = n * static_cast<std::size_t>(m);
  for (int j = 0; j < n_act; ++j) {
    const std::int64_t step = static_cast<std::int64_t>(m) * stride[j];
    // The operand's rows back to back, when they are (or get staged so).
    const float* packed = contig[j]             ? base[j]
                          : cfg_.gather_fusion ? nullptr
                                               : stage_gather(ids, j, step);
    std::vector<const float*>& ptrs = linear_rows_[j];
    ptrs.clear();
    scratch_reserve(ptrs, rows);
    for (std::size_t i = 0; i < n; ++i) {
      const float* p = packed != nullptr ? packed + static_cast<std::int64_t>(i) * step
                                         : node(nodes_[ids[i]].ins[static_cast<std::size_t>(j)]).data;
      for (int r = 0; r < m; ++r) ptrs.push_back(p + static_cast<std::int64_t>(r) * stride[j]);
    }
  }
  // The operand rule (tensor/ops.h): x gives its first kx floats, h the
  // rest of W's columns.
  const Shape& ws = node(head.ins[arity - 2]).shape;
  const int kx = n_act >= 2 ? stride[0] : ws.dim[1];
  const auto rows_of = [&](int j) { return j < n_act ? linear_rows_[j].data() : nullptr; };
  ScopedTimer timer(stats_.kernel_exec, cfg_.time_activities);
  run_linear(k.variant, k.attr, rows_of(0), kx, rows_of(1), rows_of(2), ws.dim[1] - kx,
             node(head.ins[arity - 2]).data, node(head.ins[arity - 1]).data, ws.dim[0],
             static_cast<int>(rows), out_base);
  return true;
}

bool Engine::group_by_param(const Kernel& k, const std::vector<std::uint32_t>& ids) {
  // The parameter is each member's last input: kDense's W, a kAddBias*
  // bias, a broadcast row. kLinear's key also holds the W before its b.
  const Node& head = nodes_[ids[0]];
  switch (k.op) {
    case OpKind::kLinear:
    case OpKind::kAddBiasTanh:
    case OpKind::kAddBiasSigmoid:
      break;
    case OpKind::kDense:  // only a row-vector batch stacks
      if (node(head.ins[0]).shape.ndim != 1) return false;
      break;
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:  // only a broadcast row must be shared
      if (node(head.ins[1]).shape == node(head.ins[0]).shape) return false;
      break;
    default:
      return false;  // kMatMul's right operand is per node in MV-RNN
  }
  const bool with_w = k.op == OpKind::kLinear;
  const auto key = [&](std::uint32_t id) {
    const InsList& ins = nodes_[id].ins;
    return (with_w ? static_cast<std::uint64_t>(ins[ins.size() - 2].id) << 32 : 0) |
           ins[ins.size() - 1].id;
  };
  const std::size_t n = ids.size();
  const std::uint64_t head_key = key(ids[0]);
  std::size_t i = 1;
  while (i < n && key(ids[i]) == head_key) ++i;
  if (i == n) return false;
  // Each member's key goes once into scratch, in one pass over the nodes.
  // Its group, numbered in first-appearance order, then replaces it; a
  // 16-slot cache of recent keys spares most members the scan of
  // group_keys_. Counting then places each member at its group's next slot.
  group_of_.clear();
  scratch_reserve(group_of_, n);
  group_of_.resize(n, 0);  // the first i members are group 0
  for (std::size_t j = i; j < n; ++j) group_of_[j] = key(ids[j]);
  group_keys_.clear();
  scratch_reserve(group_keys_, 1);
  group_keys_.push_back(head_key);
  std::uint64_t slot_key[16];
  std::uint32_t slot_group[16] = {};
  std::fill(slot_key, slot_key + 16, head_key);
  for (; i < n; ++i) {
    const std::uint64_t kv = group_of_[i];
    const std::size_t slot = (kv * 0x9e3779b97f4a7c15ull) >> 60;
    if (slot_key[slot] != kv) {
      std::uint32_t g = 0;
      while (g < group_keys_.size() && group_keys_[g] != kv) ++g;
      if (g == group_keys_.size()) {
        scratch_reserve(group_keys_, g + 1);
        group_keys_.push_back(kv);
      }
      slot_key[slot] = kv;
      slot_group[slot] = g;
    }
    group_of_[i] = slot_group[slot];
  }
  const std::size_t n_groups = group_keys_.size();
  group_bounds_.clear();
  scratch_reserve(group_bounds_, n_groups + 1);
  group_bounds_.resize(n_groups + 1, 0);
  for (const std::uint64_t g : group_of_) ++group_bounds_[g + 1];
  for (std::size_t g = 1; g <= n_groups; ++g) group_bounds_[g] += group_bounds_[g - 1];
  group_ids_.clear();
  scratch_reserve(group_ids_, n);
  group_ids_.resize(n);
  // Placing advances each group's start to its end, the next group's start.
  for (std::size_t j = 0; j < n; ++j) group_ids_[group_bounds_[group_of_[j]]++] = ids[j];
  for (std::size_t g = n_groups - 1; g > 0; --g) group_bounds_[g] = group_bounds_[g - 1];
  group_bounds_[0] = 0;
  return true;
}

// Collapses a batch of n same-kernel elementwise/pointwise ops into ONE
// run_op over the concatenation of their operands. Legal when per-operand
// storage is contiguous across the batch — outputs always are (allocated
// back-to-back below), and so are inputs produced by a single earlier
// batch, the iterative-model common case. Broadcast/bias operands must
// instead be the SAME tensor for every member (execute_batch groups a batch
// by them). Every covered kind applies
// a pure per-element or per-row function, so the flat call is bitwise-
// identical to n per-op calls at any variant. Scattered inputs fall back
// per-op — or are staged by an explicit gather first when gather fusion is
// off, mirroring the stacked-matmul discipline.
bool Engine::try_execute_flat(const Kernel& k, std::span<const std::uint32_t> ids,
                              float* out_base) {
  const std::size_t n = ids.size();
  const Node& head = nodes_[ids[0]];
  const int arity = static_cast<int>(head.ins.size());
  if (arity > 4) return false;
  const Shape& os = head.shape;
  if (os.ndim > 2) return false;

  Shape ishape[4];
  const float* base[4];
  std::int64_t step[4];
  bool contig[4], shared[4];
  for (int j = 0; j < arity; ++j) {
    const Node& src = node(head.ins[j]);
    if (src.shape.ndim > 2) return false;
    ishape[j] = src.shape;
    base[j] = src.data;
    step[j] = src.shape.numel();
    contig[j] = shared[j] = true;
  }
  // Uniform shapes + operand storage classes, one pass over the batch.
  for (std::size_t i = 1; i < n; ++i) {
    const Node& nd = nodes_[ids[i]];
    if (static_cast<int>(nd.ins.size()) != arity || nd.shape != os) return false;
    for (int j = 0; j < arity; ++j) {
      const Node& src = node(nd.ins[j]);
      if (src.shape != ishape[j]) return false;
      if (src.data != base[j] + static_cast<std::int64_t>(i) * step[j]) contig[j] = false;
      if (src.data != base[j]) shared[j] = false;
    }
  }

  // Required storage discipline per operand position. kShared positions
  // carry broadcast semantics (bias rows, shared cell state layouts) and
  // cannot be staged; kContig positions can.
  enum Need : unsigned char { kContig, kShared };
  Need need[4] = {kContig, kContig, kContig, kContig};
  switch (k.op) {
    case OpKind::kTanh:
    case OpKind::kSigmoid:
    case OpKind::kScale:
    case OpKind::kSoftmax:
    case OpKind::kFma2:
    case OpKind::kMulTanh:
      break;  // every operand concatenates
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
      // Same-shape second operand concatenates like the first; a shared
      // one-row operand flattens as a row broadcast instead. A source-level
      // broadcast (bias) must be the same row for the whole batch.
      if (ishape[1] == ishape[0]) {
        if (!contig[1] && shared[1] && ishape[0].rows() == 1) need[1] = kShared;
      } else {
        need[1] = kShared;
      }
      break;
    case OpKind::kAddBiasTanh:
    case OpKind::kAddBiasSigmoid:
      need[2] = kShared;  // the bias row
      break;
    case OpKind::kZeros:
      break;  // no operands: one flat zero fill
    default:
      return false;  // matmul family, concat, whole-batch reductions
  }

  bool stage[4] = {false, false, false, false};
  for (int j = 0; j < arity; ++j) {
    if (need[j] == kShared) {
      if (!shared[j]) return false;
    } else if (!contig[j]) {
      if (cfg_.gather_fusion) return false;  // per-op path reads scattered inputs in place
      stage[j] = true;
    }
  }

  // Concatenating n (r, c) operands yields one (n*r, c) operand; run_op's
  // row-structured kinds then see the same rows in the same order.
  const auto flat = [&](const Shape& s) {
    return Shape(static_cast<int>(n) * s.rows(), s.cols());
  };
  const float* fins[4];
  Shape fshapes[4];
  for (int j = 0; j < arity; ++j) {
    fshapes[j] = need[j] == kShared ? ishape[j] : flat(ishape[j]);
    fins[j] = stage[j] ? stage_gather(ids, j, step[j]) : base[j];
  }

  ScopedTimer timer(stats_.kernel_exec, cfg_.time_activities);
  run_op(k.op, k.variant, fins, fshapes, out_base, flat(os), k.attr);
  return true;
}

void Engine::execute_per_op(const Kernel& k, std::span<const std::uint32_t> ids,
                            float* const* outs) {
  ScopedTimer timer(stats_.kernel_exec, cfg_.time_activities);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Node& nd = nodes_[ids[i]];
    if (k.op == OpKind::kConcat) {
      // Engine-executed (variable arity): copy inputs end to end; axis 0
      // row-stacking and flat vector concat have identical layout.
      float* dst = outs[i];
      for (const TRef in : nd.ins) {
        const Node& src = node(in);
        std::memcpy(dst, src.data, sizeof(float) * static_cast<std::size_t>(src.shape.numel()));
        dst += src.shape.numel();
      }
      continue;
    }
    const float* ins[8];
    Shape shapes[8];
    const int arity = static_cast<int>(nd.ins.size());
    for (int j = 0; j < arity; ++j) {
      const Node& src = node(nd.ins[j]);
      ins[j] = src.data;
      shapes[j] = src.shape;
    }
    if (cfg_.stage_all_amp > 0 && matmul_family(k.op)) {
      // Cortex's restrictive interface on MV-RNN: inputs must be copied
      // into the accelerator's layout (repeatedly) before every call.
      ScopedTimer copy_timer(stats_.gather_copy, cfg_.time_activities);
      for (int rep = 0; rep < cfg_.stage_all_amp; ++rep) {
        for (int j = 0; j < arity; ++j) {
          const std::int64_t numel = shapes[j].numel();
          float* staged = arena_.alloc_raw(numel);
          std::memcpy(staged, ins[j], sizeof(float) * static_cast<std::size_t>(numel));
          stats_.gather_bytes += numel * static_cast<long long>(sizeof(float));
          if (rep == cfg_.stage_all_amp - 1) ins[j] = staged;
        }
      }
    }
    run_op(k.op, k.variant, ins, shapes, outs[i], nd.shape, k.attr);
  }
}

void Engine::execute_batch(int kernel_id, const std::vector<std::uint32_t>& batch_ids,
                           bool merge_launch) {
  std::int64_t trace_t0 = 0;
  ACROBAT_TRACE(tracer_, trace_t0 = tracer_->now());
  const Kernel& k = registry_.kernel(kernel_id);
  const std::size_t n = batch_ids.size();
  // A batch that mixes parameters (call sites with one kernel and their own
  // weights or biases) runs grouped by them, so each group's outputs,
  // allocated below, lie back to back for its own single call.
  const std::uint32_t whole[2] = {0, static_cast<std::uint32_t>(n)};
  const bool grouped = n > 1 && group_by_param(k, batch_ids);
  const std::vector<std::uint32_t>& ids = grouped ? group_ids_ : batch_ids;
  const std::span<const std::uint32_t> groups =
      grouped ? std::span<const std::uint32_t>(group_bounds_) : whole;
  stats_.kernel_invocations[static_cast<std::size_t>(kernel_id)] +=
      static_cast<long long>(n);
  if (!merge_launch) charge_launch();
  if (++batch_seq_ == 0) {
    // Wrapped: close every chain. A stamp from before the wrap then reads
    // as written after any later launch, which can forgo a merge but never
    // allows a wrong one.
    for (Chain& c : chains_) c.launch = 0;
    batch_seq_ = 1;
  }

  // Allocate every output of the batch back-to-back: downstream batches
  // over these results see contiguous inputs (the iterative-model fast path
  // in ablation_gather.cpp), which is also what arms the flat/stacked
  // single-call paths below. Persistent nodes (cached constants under
  // recycling) land in the persistent arena instead — a batch is uniform
  // here because persistence is decided per kernel (zero-arity + cache).
  std::int64_t total = 0;
  for (const std::uint32_t id : ids) total += nodes_[id].shape.numel();
  const bool persist_batch = nodes_[ids[0]].persist;
#ifndef NDEBUG
  for (const std::uint32_t id : ids)
    assert(nodes_[id].persist == persist_batch && "mixed persistence in one batch");
#endif
  float* out_base = persist_batch ? persist_arena_.alloc_raw(total) : arena_.alloc_raw(total);
  charge_bytes(static_cast<std::size_t>(total) * sizeof(float));

  std::int64_t off = 0;
  outs_scratch_.clear();
  scratch_reserve(outs_scratch_, n);
  for (std::size_t i = 0; i < n; ++i) {
    outs_scratch_.push_back(out_base + off);
    off += nodes_[ids[i]].shape.numel();
  }
  const std::vector<float*>& outs = outs_scratch_;

#ifndef NDEBUG
  // Scheduler correctness invariant (DESIGN.md §5).
  for (const std::uint32_t id : ids)
    for (const TRef in : nodes_[id].ins) assert(node(in).data != nullptr && "batch ordering bug");
#endif

  // Single-call paths, one call per parameter group, all inside the batch's
  // one launch: a row-pointer kLinear call, a stacked matmul over
  // shared-parameter rows, or a flat elementwise call. A group that does
  // not fit runs one run_op per member. Cortex's forced-staging mode keeps
  // paying its per-op matmul copies (only the original dense stacking
  // applies there), so the baseline's cost model is intact. The batch
  // counts as single-call when each group ran in one call.
  bool fused = true;
  for (std::size_t g = 0; g + 1 < groups.size(); ++g) {
    const std::span<const std::uint32_t> group(ids.data() + groups[g], groups[g + 1] - groups[g]);
    bool one_call = false;
    if (k.op == OpKind::kLinear) {
      one_call = try_execute_linear(k, group, outs[groups[g]]);
    } else if (group.size() > 1) {
      if (!matmul_family(k.op))
        one_call = try_execute_flat(k, group, outs[groups[g]]);
      else if (cfg_.stage_all_amp == 0 || k.op == OpKind::kDense)
        one_call = try_execute_stacked(k, group, outs[groups[g]]);
    }
    if (!one_call) {
      execute_per_op(k, group, outs.data() + groups[g]);
      fused = fused && grouped && group.size() == 1;
    }
  }
  if (fused && n > 1) {
    if (k.op == OpKind::kLinear || matmul_family(k.op))
      ++stats_.stacked_batches;
    else
      ++stats_.flat_batches;
  }

  for (std::size_t i = 0; i < n; ++i) {
    nodes_[ids[i]].data = outs[i];
    nodes_[ids[i]].batch = batch_seq_;
  }
  ACROBAT_TRACE(tracer_, {
    const std::uint8_t path =
        fused ? (matmul_family(k.op) || k.op == OpKind::kLinear ? 2 : 1) : 0;
    tracer_->span(trace::EventKind::kBatch, trace_t0, kernel_id,
                  static_cast<std::int32_t>(n), k.variant,
                  static_cast<std::uint8_t>(path | (merge_launch ? 4 : 0)));
  });
  // The replay log is only meaningful while node ids are append-only;
  // recycling reuses them, and serving has no backward pass to feed. It
  // grows by the vectors' own policy, not scratch_reserve: it is not
  // scheduler scratch, so scheduling_allocs does not count it.
  if (!cfg_.recycle) {
    const auto begin = static_cast<std::uint32_t>(exec_ids_.size());
    exec_ids_.insert(exec_ids_.end(), ids.begin(), ids.end());
    exec_log_.push_back(
        ExecBatch{kernel_id, begin, static_cast<std::uint32_t>(exec_ids_.size()), merge_launch});
  }
}

}  // namespace acrobat
