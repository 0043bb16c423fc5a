// The fleet's model table (DESIGN.md §8): N models compiled once into ONE
// merged module — a single KernelRegistry (kernels keyed by structure, as
// in every module, so the models' identical kernels are one kernel) and a
// single ir::Program holding every model's functions, with one entry Func
// recorded per model. A shard worker built from the registry hosts every
// model behind one engine: one trigger cadence, one node table, one
// recycling arena, and a persistent region holding every model's weights,
// dataset tensors, and cached constants side by side.
//
// Weights are materialized per model with the model's own deterministic
// seed (harness::materialize_weights), so a model's parameters are
// bitwise-identical whether it is prepared solo or into a fleet — the
// parity tests depend on it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness/harness.h"
#include "serve/load.h"

namespace acrobat::fleet {

struct FleetModel {
  std::string name;
  bool large = false;
  models::Dataset dataset;
  std::shared_ptr<ir::Func> entry;  // this model's main in the merged program
  int entry_index = -1;             // its index in the merged program's funcs
};

class ModelRegistry {
 public:
  // One pipeline config per fleet: every model compiles at the same
  // ablation level, exactly as a solo harness::prepare would.
  explicit ModelRegistry(passes::PipelineConfig cfg = {}) : cfg_(cfg) {}

  // Compiles the spec into the merged module and takes ownership of its
  // dataset. Returns the model id requests use (dense, in add order).
  // Call before prepare(); aborts loudly afterwards.
  int add(const models::ModelSpec& spec, bool large, models::Dataset ds);

  // Finalizes the merged IR (may_sync propagation) and applies the default
  // (assumed-fastest, PGO-ready) schedule variants — once, for all models.
  void prepare();
  bool prepared() const { return prepared_; }

  const harness::Compiled& compiled() const { return compiled_; }
  const harness::Weights& weights() const { return weights_; }
  const passes::PipelineConfig& cfg() const { return cfg_; }
  const std::vector<FleetModel>& models() const { return models_; }
  const FleetModel& model(int id) const { return models_[static_cast<std::size_t>(id)]; }
  int num_models() const { return static_cast<int>(models_.size()); }

  // Equal-weight all-interactive mix over every model (input bounds filled
  // in); callers adjust weights/classes per entry before generate_load.
  std::vector<serve::ModelMix> uniform_mix() const;

 private:
  passes::PipelineConfig cfg_;
  bool prepared_ = false;
  harness::Compiled compiled_;
  harness::Weights weights_;
  std::vector<models::WeightDecl> decls_;  // merged; kLoadWeight indices are global
  std::vector<FleetModel> models_;
};

}  // namespace acrobat::fleet
