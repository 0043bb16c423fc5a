// Dedicated tuner coverage (autosched/tuner.h) — previously only exercised
// incidentally through test_models. Properties: the trial budget is
// respected (cold kernels are never touched once it runs out), the
// frequency profile steers trials hottest-first with stable registration-
// order tie-breaks, results stay inside each kernel's variant space, and
// the visit pattern is deterministic for a fixed (freq, budget) — the only
// nondeterminism in the tuner is which variant a measurement prefers,
// never which kernels get measured.
#include "autosched/tuner.h"

#include <vector>

#include "harness/harness.h"
#include "test_util.h"

using namespace acrobat;

namespace {

// Three multi-variant kernels (dense: 3 variants; sigmoid/tanh: 2) plus a
// single-variant one the tuner must skip without spending budget.
KernelRegistry make_registry() {
  KernelRegistry reg;
  const Shape vec(32), mat(32, 32);
  const Shape dense_rep[2] = {vec, mat};
  const Shape sigmoid_rep[1] = {vec};
  const Shape tanh_rep[1] = {vec};
  const Shape concat_rep[2] = {vec, vec};
  reg.add("t.dense", OpKind::kDense, 0, 2, dense_rep);
  reg.add("t.sigmoid", OpKind::kSigmoid, 0, 1, sigmoid_rep);
  reg.add("t.tanh", OpKind::kTanh, 0, 1, tanh_rep);
  reg.add("t.concat", OpKind::kConcat, 0, 2, concat_rep);  // 1 variant
  return reg;
}

std::vector<int> variants_of(const KernelRegistry& reg) {
  std::vector<int> v;
  for (std::size_t i = 0; i < reg.num_kernels(); ++i)
    v.push_back(reg.kernel(static_cast<int>(i)).variant);
  return v;
}

void test_reset_clamps() {
  KernelRegistry reg = make_registry();
  autosched::reset_schedules(reg, 99);
  for (std::size_t i = 0; i < reg.num_kernels(); ++i) {
    const Kernel& k = reg.kernel(static_cast<int>(i));
    CHECK_EQ(k.variant, k.num_variants - 1);
  }
  autosched::reset_schedules(reg, 0);
  for (std::size_t i = 0; i < reg.num_kernels(); ++i)
    CHECK_EQ(reg.kernel(static_cast<int>(i)).variant, 0);
}

void test_zero_budget_changes_nothing() {
  KernelRegistry reg = make_registry();
  autosched::reset_schedules(reg, 0);
  const std::vector<int> before = variants_of(reg);
  autosched::tune(reg, std::vector<double>(reg.num_kernels(), 1.0), 0);
  CHECK(variants_of(reg) == before);
}

void test_budget_respected_in_registration_order() {
  // Uniform frequencies tie; the stable sort keeps registration order, so a
  // budget covering only the dense kernel's 3 variants must leave sigmoid
  // and tanh untouched.
  KernelRegistry reg = make_registry();
  autosched::reset_schedules(reg, 0);
  autosched::tune(reg, std::vector<double>(reg.num_kernels(), 1.0), 3);
  CHECK_EQ(reg.kernel(1).variant, 0);  // t.sigmoid: never measured
  CHECK_EQ(reg.kernel(2).variant, 0);  // t.tanh: never measured
  CHECK(reg.kernel(0).variant >= 0 && reg.kernel(0).variant < 3);
}

void test_freq_steers_budget_to_hot_kernels() {
  // A PGO profile that marks t.tanh hottest sends the (tiny) budget there:
  // dense — registered first, but cold — is never measured.
  KernelRegistry reg = make_registry();
  autosched::reset_schedules(reg, 0);
  std::vector<double> freq{1.0, 2.0, 100.0, 1.0};
  autosched::tune(reg, freq, 2);  // exactly t.tanh's variant count
  CHECK_EQ(reg.kernel(0).variant, 0);  // t.dense: cold, unmeasured
  CHECK_EQ(reg.kernel(1).variant, 0);  // t.sigmoid: cold, unmeasured
  CHECK(reg.kernel(2).variant >= 0 && reg.kernel(2).variant < 2);
}

void test_deterministic_visit_pattern() {
  // Two identical registries, same freq and budget: the *set of kernels the
  // tuner may change* is identical (the visit order is a pure function of
  // freq + registration order). Chosen variants depend on measurements, so
  // only the untouched kernels are compared exactly.
  for (int trial = 0; trial < 2; ++trial) {
    KernelRegistry a = make_registry();
    KernelRegistry b = make_registry();
    autosched::reset_schedules(a, 0);
    autosched::reset_schedules(b, 0);
    const std::vector<double> freq{5.0, 1.0, 1.0, 9.0};
    autosched::tune(a, freq, 3);  // covers only t.dense (hottest tunable)
    autosched::tune(b, freq, 3);
    // t.concat is hottest by freq but has one variant: skipped for free.
    CHECK_EQ(a.kernel(1).variant, 0);
    CHECK_EQ(b.kernel(1).variant, 0);
    CHECK_EQ(a.kernel(2).variant, 0);
    CHECK_EQ(b.kernel(2).variant, 0);
    CHECK_EQ(a.kernel(3).variant, 0);
    CHECK_EQ(b.kernel(3).variant, 0);
  }
}

void test_tune_monotone_non_worsening_from_worst() {
  // On a real model registry, a saturating budget must move at least one
  // kernel off the worst (variant-0) schedule and never leave a variant out
  // of range — the tuner only ever replaces a schedule with one that
  // measured no slower.
  const models::ModelSpec& spec = models::model_by_name("NestedRNN");
  harness::Prepared p = harness::prepare(spec, false, passes::PipelineConfig{});
  KernelRegistry& reg = p.compiled.module.registry;
  autosched::reset_schedules(reg, 0);
  autosched::tune(reg, std::vector<double>(reg.num_kernels(), 1.0), 100000);
  bool any_changed = false;
  for (std::size_t i = 0; i < reg.num_kernels(); ++i) {
    const Kernel& k = reg.kernel(static_cast<int>(i));
    CHECK(k.variant >= 0 && k.variant < k.num_variants);
    if (k.variant != 0) any_changed = true;
  }
  CHECK(any_changed);
}

}  // namespace

int main() {
  test_reset_clamps();
  test_zero_budget_changes_nothing();
  test_budget_respected_in_registration_order();
  test_freq_steers_budget_to_hot_kernels();
  test_deterministic_visit_pattern();
  test_tune_monotone_non_worsening_from_worst();
  return acrobat::test::finish("test_tuner");
}
