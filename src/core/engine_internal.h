// Implementation-shared state for the DisguiseEngine translation units.
// Not part of the public API.
#ifndef SRC_CORE_ENGINE_INTERNAL_H_
#define SRC_CORE_ENGINE_INTERNAL_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/vault/reveal_record.h"

namespace edna::core {

// Working state of one Apply() invocation.
struct DisguiseEngine::ApplyContext {
  const disguise::DisguiseSpec* spec = nullptr;
  sql::ParamMap params;
  sql::Value uid;  // Null for global disguises
  Rng rng{0};      // this operation's private random stream (see OpRng)

  ApplyResult result;
  vault::RevealRecord record;  // accumulated reveal function (if reversible)

  // Composition: rows temporarily recorrelated from prior disguises.
  struct Recorrelated {
    std::string table;
    db::RowId row_id = db::kInvalidRowId;
    std::string column;
    sql::Value placeholder_value;  // value the prior disguise had written
  };
  std::vector<Recorrelated> recorrelated;
};

// One transformation of a later active disguise, used by Reveal to filter
// revealed data (§4.2).
// Deep copies (params, spec_name) rather than pointers into log entries:
// a concurrent Append can reallocate the log's entry storage while a reveal
// filters against this snapshot. `transform` stays a pointer — it points into
// a registered spec, which is frozen once operations start.
struct DisguiseEngine::InterimTransform {
  uint64_t disguise_id = 0;
  std::string table;
  const disguise::Transformation* transform = nullptr;
  sql::ParamMap params;
  std::string spec_name;
};

// RAII scope marking engine-internal mutations as exempt from the
// disguised-data write guard. Depth is tracked per (engine, thread): a batch
// worker inside Apply() is exempt, but a concurrent application write on
// another thread still trips the guard.
class DisguiseEngine::EngineOpScope {
 public:
  explicit EngineOpScope(DisguiseEngine* engine) : engine_(engine) {
    engine_->EnterEngineOp();
  }
  ~EngineOpScope() { engine_->ExitEngineOp(); }

 private:
  DisguiseEngine* engine_;
};

// Folds a secondary (compensation) failure into `primary`'s message, so
// double-fault situations reach the caller instead of being discarded.
Status FoldStatus(Status primary, const Status& secondary, const char* what);

}  // namespace edna::core

#endif  // SRC_CORE_ENGINE_INTERNAL_H_
