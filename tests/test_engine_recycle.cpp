// Epoch recycling at the engine layer (DESIGN.md §7 "Recycling"):
//  (a) property test — random interleavings of record/trigger/retire never
//      hand a free-listed slot to a new request while its old owner is
//      live, reissued slots carry a bumped generation, and live requests'
//      tensors stay intact across other requests' retirements;
//  (b) the node table and arena high-water mark plateau at peak concurrency
//      instead of growing with the request count;
//  (c) under Debug, dereferencing a stale generation-tagged TRef aborts
//      loudly (fork-based death test) instead of aliasing the slot's new
//      owner.
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <vector>

#include "engine/engine.h"
#include "support/rng.h"
#include "test_util.h"

using namespace acrobat;

namespace {

struct Fixture {
  KernelRegistry reg;
  TensorPool pool;
  Rng rng{acrobat::test::seed(0x5eedull)};
  int k_dense, k_tanh;
  Tensor w, x;

  Fixture() {
    const Shape xs(8), ws(8, 8);
    const Shape reps[2] = {xs, ws};
    k_dense = reg.add("r.dense", OpKind::kDense, 0, 2, reps);
    k_tanh = reg.add("r.tanh", OpKind::kTanh, 0, 1, reps);
    w = pool.alloc_random(ws, rng, 0.5f);
    x = pool.alloc_random(xs, rng, 1.0f);
  }

  static EngineConfig recycle_config() {
    EngineConfig cfg;
    cfg.recycle = true;
    return cfg;
  }
};

// One simulated request: a dense followed by `len` tanhs.
std::vector<TRef> record_request(Engine& eng, Fixture& f, TRef xref, TRef wref, int id,
                                 int len) {
  eng.begin_request(id);
  InstCtx ctx{id};
  const TRef ins[2] = {xref, wref};
  std::vector<TRef> refs;
  refs.push_back(eng.add_op(f.k_dense, ins, 2, ctx, 0));
  for (int i = 0; i < len; ++i) refs.push_back(eng.add_op(f.k_tanh, &refs.back(), 1, ctx, 0));
  return refs;
}

// (a)+(b): interleaved alloc/trigger/retire rounds driven by the harness
// seed. Tracks which live request owns each slot; a reissued slot must not
// belong to a live owner and must carry a new generation.
void test_free_list_never_reissues_live_slots() {
  Fixture f;
  Engine eng(f.reg, Fixture::recycle_config());
  const TRef xref = eng.add_concrete(f.x.view());
  const TRef wref = eng.add_concrete(f.w.view());

  std::map<int, std::vector<TRef>> live;               // request → its refs
  std::map<std::uint32_t, int> owner;                  // slot → live owner
  std::map<std::uint32_t, std::uint32_t> last_gen;     // slot → last issued gen
  int next_id = 0;
  std::size_t plateau_nodes = 0, warm_rounds = 0;
  std::int64_t plateau_arena = 0;

  for (int round = 0; round < 200; ++round) {
    // Admit 1..4 requests of random length.
    const int admit = f.rng.range(1, 4);
    for (int a = 0; a < admit && live.size() < 6; ++a) {
      const int id = next_id++;
      const int len = f.rng.range(1, 5);
      std::vector<TRef> refs = record_request(eng, f, xref, wref, id, len);
      for (const TRef r : refs) {
        const auto own = owner.find(r.id);
        if (own != owner.end()) {
          std::printf("slot %u reissued while request %d is live\n", r.id, own->second);
          CHECK(own == owner.end());
        }
        owner[r.id] = id;
        const auto lg = last_gen.find(r.id);
        // A reused slot must be distinguishable from every earlier hand-out.
        if (lg != last_gen.end()) CHECK(r.gen != lg->second);
        last_gen[r.id] = r.gen;
      }
      live.emplace(id, std::move(refs));
    }

    eng.trigger_execution();

    // Every live request's tensors are materialized and still theirs.
    for (const auto& [id, refs] : live) {
      for (const TRef r : refs) {
        CHECK(eng.materialized(r));
        CHECK(eng.data(r) != nullptr);
      }
    }

    // Retire a random subset (possibly none) of completed requests.
    const int retire = f.rng.range(0, static_cast<int>(live.size()));
    for (int d = 0; d < retire; ++d) {
      auto it = live.begin();
      std::advance(it, f.rng.uniform_int(static_cast<int>(live.size())));
      for (const TRef r : it->second) owner.erase(r.id);
      eng.retire_request(it->first);
      live.erase(it);
    }

    // (b) plateau: once warmed past peak concurrency, neither the node
    // table nor the arena high-water mark keeps growing.
    if (round == 40) {
      plateau_nodes = eng.num_nodes();
      plateau_arena = eng.memory().arena_high_water_bytes;
      warm_rounds = static_cast<std::size_t>(next_id);
    }
  }
  CHECK(plateau_nodes > 0);
  CHECK(static_cast<std::size_t>(next_id) > warm_rounds);  // kept allocating after warmup
  CHECK(eng.num_nodes() <= 2 * plateau_nodes);
  CHECK(eng.memory().arena_high_water_bytes <=
        2 * static_cast<std::size_t>(plateau_arena));
  CHECK(eng.memory().nodes_recycled > 0);
}

// Live tensors survive a neighbor's retirement byte-for-byte: the epoch
// protocol may not reclaim a page any still-live request can read.
void test_survivor_bytes_intact_across_retirement() {
  Fixture f;
  Engine eng(f.reg, Fixture::recycle_config());
  const TRef xref = eng.add_concrete(f.x.view());
  const TRef wref = eng.add_concrete(f.w.view());

  const std::vector<TRef> a = record_request(eng, f, xref, wref, 0, 3);
  const std::vector<TRef> b = record_request(eng, f, xref, wref, 1, 3);
  eng.trigger_execution();
  const Tensor bt = eng.force(b.back());
  const std::vector<float> before(bt.data, bt.data + bt.numel());

  eng.retire_request(0);
  // Churn through enough follow-on requests to force slot and page reuse.
  for (int id = 2; id < 40; ++id) {
    record_request(eng, f, xref, wref, id, 4);
    eng.trigger_execution();
    eng.retire_request(id);
  }
  const Tensor bt2 = eng.force(b.back());
  CHECK_EQ(before.size(), static_cast<std::size_t>(bt2.numel()));
  for (std::size_t i = 0; i < before.size(); ++i) CHECK(before[i] == bt2.data[i]);
  eng.retire_request(1);
  CHECK_EQ(eng.live_nodes(), 2);  // only the two concrete nodes remain
}

// Size-class session-buffer pooling (DESIGN.md §7 "Recycling"): a session
// whose checkpointed state *grows* per step defeats a single free-list —
// every growth would pool an undersized buffer no successor could adopt,
// so bytes-allocated would climb with every session. With size classes the
// allocation ladder is paid once per concurrency level and
// session_bytes_allocated plateaus exactly.
void test_session_buffer_pool_plateaus() {
  KernelRegistry reg;
  TensorPool pool;
  Rng rng{acrobat::test::seed(0xba11ull)};
  constexpr int kSteps = 4;
  const int ladder[kSteps] = {16, 24, 48, 96};  // growing per-step state
  int tanh_k[kSteps];
  Tensor inputs[kSteps];
  for (int i = 0; i < kSteps; ++i) {
    const Shape s(ladder[i]);
    const Shape reps[1] = {s};
    char name[16];
    std::snprintf(name, sizeof name, "r.tanh%d", ladder[i]);
    tanh_k[i] = reg.add(name, OpKind::kTanh, 0, 1, reps);
    inputs[i] = pool.alloc_random(s, rng, 1.0f);
  }

  Engine eng(reg, Fixture::recycle_config());
  TRef in_refs[kSteps];
  for (int i = 0; i < kSteps; ++i) in_refs[i] = eng.add_concrete(inputs[i].view());

  const auto run_session = [&](int id) {
    eng.begin_request(id);
    const InstCtx ctx{id};
    for (int s = 0; s < kSteps; ++s) {
      const TRef step = eng.add_op(tanh_k[s], &in_refs[s], 1, ctx, 0);
      eng.trigger_execution();
      const Tensor t = eng.force(step);
      const std::vector<float> want(t.data, t.data + t.numel());
      const Engine::StepResult sr = eng.session_step(step, ctx);
      // The checkpoint lands bitwise-intact in its (possibly pooled) buffer.
      const float* got = eng.data(sr.state);
      CHECK(got != nullptr);
      for (std::size_t j = 0; j < want.size(); ++j) CHECK(want[j] == got[j]);
    }
    eng.retire_request(id);
  };

  run_session(0);
  const std::size_t ladder_bytes = eng.memory().session_bytes_allocated;
  CHECK(ladder_bytes > 0);
  for (int id = 1; id < 8; ++id) run_session(id);
  // Exact plateau: every later session adopts pooled buffers class-for-class
  // through its whole growth ladder — zero new allocation after session 0.
  CHECK_EQ(eng.memory().session_bytes_allocated, ladder_bytes);
  CHECK_EQ(eng.memory().session_buffers_live, 0);
  CHECK_EQ(eng.memory().session_buffers_peak, 1);

  // Two concurrent growing sessions: the ladder is paid once more (peak
  // concurrency 2), re-pooled at retirement — further pairs allocate nothing.
  const auto run_pair = [&](int id_a, int id_b) {
    eng.begin_request(id_a);
    eng.begin_request(id_b);
    const InstCtx ca{id_a}, cb{id_b};
    for (int s = 0; s < kSteps; ++s) {
      const TRef sa = eng.add_op(tanh_k[s], &in_refs[s], 1, ca, 0);
      const TRef sb = eng.add_op(tanh_k[s], &in_refs[s], 1, cb, 0);
      eng.trigger_execution();
      (void)eng.session_step(sa, ca);
      (void)eng.session_step(sb, cb);
    }
    eng.retire_request(id_a);
    eng.retire_request(id_b);
  };
  run_pair(100, 101);
  const std::size_t pair_bytes = eng.memory().session_bytes_allocated;
  CHECK(pair_bytes <= 2 * ladder_bytes);
  for (int i = 0; i < 6; ++i) run_pair(110 + 2 * i, 111 + 2 * i);
  CHECK_EQ(eng.memory().session_bytes_allocated, pair_bytes);
  CHECK_EQ(eng.memory().session_buffers_peak, 2);
  CHECK_EQ(eng.memory().session_buffers_live, 0);
  CHECK_EQ(eng.memory().leaked_slots, 0);
}

#ifndef NDEBUG
using acrobat::test::dies;

// (c) a retired request's TRef no longer matches its slot's generation;
// any deref through the engine's checked accessor must abort.
void test_stale_ref_faults_in_debug() {
  Fixture f;
  Engine eng(f.reg, Fixture::recycle_config());
  const TRef xref = eng.add_concrete(f.x.view());
  const TRef wref = eng.add_concrete(f.w.view());

  const std::vector<TRef> a = record_request(eng, f, xref, wref, 0, 2);
  eng.trigger_execution();
  eng.retire_request(0);
  const TRef stale = a.back();

  CHECK(dies([&] { (void)eng.shape(stale); }));
  CHECK(dies([&] { (void)eng.data(stale); }));
  // A fresh request that reuses the slot does not trip the check.
  const std::vector<TRef> b = record_request(eng, f, xref, wref, 1, 2);
  eng.trigger_execution();
  CHECK(eng.data(b.back()) != nullptr);
}
#endif

}  // namespace

int main() {
  test_free_list_never_reissues_live_slots();
  test_survivor_bytes_intact_across_retirement();
  test_session_buffer_pool_plateaus();
#ifndef NDEBUG
  test_stale_ref_faults_in_debug();
#else
  std::printf("note: stale-ref death test needs a Debug build (generation "
              "checks compile out under NDEBUG)\n");
#endif
  return acrobat::test::finish("test_engine_recycle");
}
