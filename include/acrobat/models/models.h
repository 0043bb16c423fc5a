// Model zoo: the paper's seven evaluation models plus GraphRNN (training
// bench). Each spec provides a dataset builder (deterministic per seed — all
// benches and baselines see identical inputs) and a program builder that
// compiles the model into the register IR at the granularity the pipeline
// config asks for.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/kernels.h"
#include "engine/value.h"
#include "ir/ir.h"
#include "passes/pipeline.h"
#include "tensor/tensor.h"

namespace acrobat::models {

struct Dataset {
  std::shared_ptr<TensorPool> pool;
  std::vector<Tensor> tensors;  // raw input tensors
  // Per-instance structured input; kTensor leaves hold indices into
  // `tensors`. The AOT executor maps a leaf through the engine refs of
  // `tensors` when it reads it; the VM runs a remap_trefs copy.
  std::vector<Value> inputs;
};

// Rewrites dataset tensor indices to engine TRefs (refs[i] wraps tensors[i]);
// the boxed VM's input copy.
Value remap_trefs(const Value& v, const std::vector<TRef>& refs);

struct WeightDecl {
  Shape shape;
  float scale = 0.0f;  // 0 → zeros
};

// Handed to model builders at prepare time.
struct BuildCtx {
  ir::Program& program;
  KernelRegistry& registry;
  const passes::PipelineConfig& cfg;
  bool large = false;
  std::vector<WeightDecl>& weights;

  int add_weight(const Shape& s, float scale) {
    weights.push_back(WeightDecl{s, scale});
    return static_cast<int>(weights.size()) - 1;
  }
  int kernel(const std::string& name, OpKind op, std::int64_t attr,
             std::initializer_list<Shape> rep) {
    return registry.add(name, op, attr, static_cast<int>(rep.size()), rep.begin());
  }
};

struct ModelSpec {
  std::string name;
  Dataset (*build_dataset)(bool large, int batch, std::uint64_t seed) = nullptr;
  int (*build)(BuildCtx&) = nullptr;  // returns the main function's index
};

// The seven models of Tables 5-9.
const std::vector<ModelSpec>& all_models();
// Those seven plus GraphRNN (training_batch.cpp); aborts on unknown names.
const ModelSpec& model_by_name(const std::string& name);

int hidden_dim(bool large);       // 16 small / 40 large
constexpr int kNumClasses = 8;    // classifier head width

}  // namespace acrobat::models
