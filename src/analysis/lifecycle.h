// Lifecycle verifier: bounded symbolic model checking of disguise
// compositions (§5 generalized beyond pairs).
//
// The pairwise conflict predictor (conflicts.h) compares transformation
// predicates two at a time; it cannot see a 3-way interleaving that strands
// vault entries or resurrects disguised data. This pass model-checks the
// full apply/reveal lifecycle instead:
//
//  1. For every table a spec combination touches, the table's row space is
//     partitioned into REGIONS: the satisfiable sign assignments over the
//     combination's (deduplicated) transformation predicates, decided by the
//     symbolic predicate engine (predicate.h). A region stands for "the rows
//     that originally matched predicates {P1, !P3, ...}".
//  2. The abstract state tracks, per (table, region): row presence plus a
//     per-column tag (original value vs. generated-by spec/op), and a model
//     vault per disguise. Apply executes the engine's phase order
//     (Decorrelate, Modify, Remove), vaulting overwritten state for
//     reversible specs; Reveal restores vault entries in reverse, skipping
//     cell restores whose rows are absent (mirroring the engine).
//  3. Every complete apply/reveal interleaving of the k specs (k <= 3) is
//     explored. After each event the HIDING INVARIANT is checked: while a
//     disguise is active, regions its Removes matched stay absent and cells
//     its Modifies/Decorrelates matched stay non-original. At the end of an
//     all-reversible sequence the state must equal the initial state.
//
// Properties proven per spec / combination, with their finding codes:
//   reversibility    -> "not-reversible" (error): no explored reveal order
//                       restores the pre-apply abstract state.
//   vault completeness -> "vault-incomplete" (error for pii, warning for
//                       quasi): a reversible spec overwrites or removes
//                       Sensitive-annotated state without a vault write.
//   reveal-order safety -> "reveal-order-unsafe" (warning, info for benign
//                       double-remove shadowing): some order breaks the
//                       hiding invariant or the final state, but a safe
//                       order exists (reverse application order always is).
//   idempotence      -> "not-idempotent" (warning if provable, info if
//                       possible): re-applying the spec re-fires a
//                       value-changing transformation, decided by symbolic
//                       substitution of generated values into the predicate.
//   budget overruns  -> "verify-truncated" (warning).
//
// Matching is evaluated against the original-value partition, so a
// transformation that destroys a later spec's predicate match is
// over-approximated as may-match; see DESIGN.md "Lifecycle verification"
// for the soundness argument and caveats.
#ifndef SRC_ANALYSIS_LIFECYCLE_H_
#define SRC_ANALYSIS_LIFECYCLE_H_

#include <cstddef>
#include <vector>

#include "src/analysis/findings.h"
#include "src/db/schema.h"
#include "src/disguise/spec.h"

namespace edna::analysis {

// Model-level fault injection, used by the verifier's own test battery to
// prove it catches broken lifecycles (an engine that forgets reveal records,
// a reveal that restores a non-inverse value). Production callers leave
// these off.
struct LifecycleFaults {
  // Apply skips all model-vault writes: reveals restore nothing.
  bool drop_vault_writes = false;
  // Reveal writes a fresh generated value instead of the vaulted one
  // (a non-inverse transform).
  bool skew_reveal_values = false;
};

// Interleaving budget per combination (k=3 all-reversible needs 90); a
// combination over it is reported as verify-truncated.
inline constexpr size_t kMaxSequencesPerCombo = 512;

struct LifecycleOptions {
  // Largest spec combination explored; clamped to [1, 3]. Pairs reproduce
  // the pairwise predictor; 3 covers the paper's compose-of-compose case.
  int max_k = 2;
  // Region budget: a table with more distinct predicates than this is
  // reported as truncated rather than partitioned (2^n sign vectors).
  size_t max_predicates_per_table = 8;
  LifecycleFaults faults;
};

// Work counters for `verify --json` and bench/ablJ_verifier.
struct LifecycleStats {
  size_t combos = 0;     // spec combinations explored
  size_t tables = 0;     // (combo, table) models built
  size_t regions = 0;    // satisfiable regions across all models
  size_t sequences = 0;  // complete interleavings simulated
  size_t truncated = 0;  // tables/combos skipped over budget
};

// Verifies every combination of up to options.max_k specs. Specs must
// already Validate() against `schema`; null entries are ignored. Findings
// come back sorted and deduplicated.
std::vector<Finding> VerifyLifecycle(
    const std::vector<const disguise::DisguiseSpec*>& specs,
    const db::Schema& schema, const LifecycleOptions& options = {},
    LifecycleStats* stats = nullptr);

}  // namespace edna::analysis

#endif  // SRC_ANALYSIS_LIFECYCLE_H_
