// Runtime values: tensor futures (TRef) plus the structured values (ADTs,
// tuples, ints) that dynamic-control-flow programs branch on.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace acrobat {

// Handle to an engine tensor node (a future until the engine executes it).
// In a Dataset, `id` indexes the dataset's tensor list instead: the AOT
// executor maps it to an engine ref when it reads the leaf, and the VM runs
// a models::remap_trefs copy.
//
// `gen` is the slot's generation at hand-out. Without recycling every slot
// stays at generation 0 and the field is inert; with epoch recycling
// (EngineConfig::recycle) a retired request's slots are reissued with a
// bumped generation, so a stale ref no longer matches its slot and the
// engine's debug accessor faults loudly instead of silently reading the
// next request's tensor.
struct TRef {
  std::uint32_t id = 0xffffffffu;
  std::uint32_t gen = 0;
  bool ok() const { return id != 0xffffffffu; }
};

struct Adt;
struct Tup;

struct Value {
  enum Kind { kNone, kTensor, kAdt, kTuple, kInt };
  Kind kind = kNone;
  TRef tref;
  std::int64_t i = 0;
  std::shared_ptr<Adt> adt;
  std::shared_ptr<Tup> tuple;

  static Value tensor(TRef r) {
    Value v;
    v.kind = kTensor;
    v.tref = r;
    return v;
  }
  static Value integer(std::int64_t x) {
    Value v;
    v.kind = kInt;
    v.i = x;
    return v;
  }
  static Value make_adt(int tag, std::vector<Value> fields);
  static Value make_tuple(std::vector<Value> elems);
};

// Algebraic-data-type node: constructor tag + fields (e.g. tree Leaf/Node,
// list Cons/Nil).
struct Adt {
  int tag = 0;
  std::vector<Value> fields;
};

struct Tup {
  std::vector<Value> elems;
};

inline Value Value::make_adt(int tag, std::vector<Value> fields) {
  Value v;
  v.kind = kAdt;
  v.adt = std::make_shared<Adt>();
  v.adt->tag = tag;
  v.adt->fields = std::move(fields);
  return v;
}

inline Value Value::make_tuple(std::vector<Value> elems) {
  Value v;
  v.kind = kTuple;
  v.tuple = std::make_shared<Tup>();
  v.tuple->elems = std::move(elems);
  return v;
}

}  // namespace acrobat
