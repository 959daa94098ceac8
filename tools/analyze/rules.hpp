// Rule passes for hotc_analyze.
//
//   lock-order     static rank proofs over the call graph (rule 1)
//   seqlock-purity no stores/allocation inside SeqLock read sections (rule 2)
//   hot-path-alloc no transitive allocation from hot-path roots (rule 3)
//   guarded-by     annotated fields only touched under their mutex (rule 4)
//   signal-purity  dump path stays async-signal-safe (rule 5)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "model.hpp"

namespace hotc::analyze {

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string function;  // qualified
  std::string message;
  /// Stable baseline key: rule|file|function|detail (no line numbers, so
  /// unrelated edits don't churn the baseline).
  std::string key;
};

struct RuleOptions {
  /// Hot-path traversal scope: directory fragments a file's rel path must
  /// contain to be walked (barrier otherwise).  Ignored when
  /// `all_in_scope` (explicit file lists, i.e. fixtures).  The obs
  /// headers hold the SeqRing publish path and the record codecs it calls;
  /// the function table holds the handle every RealHotC::submit(spec)
  /// looks up, and share/ the donor lookup and registration its first
  /// class query runs.
  std::vector<std::string> scope_dirs = {
      "pool/",        "runtime/",      "core/",
      "spec/",        "obs/prof",      "snapshot/",
      "obs/seq_ring", "obs/trace.hpp", "obs/journal.hpp",
      "engine/function_table", "share/"};
  bool all_in_scope = false;
};

/// Rule 1: propagate acquisitions through the call graph and fail on any
/// potential rank inversion (acquiring order <= a held lock's order).
void check_lock_order(Model& model, std::vector<Finding>& out);

/// Rule 2: SeqLock read-retry sections must be pure; manual
/// write_begin/write_end sections must balance with no early return.
void check_seqlock_purity(const Model& model, std::vector<Finding>& out);

/// Rule 3: no allocation reachable from hot-path roots.
void check_hot_path_alloc(const Model& model, const RuleOptions& options,
                          std::vector<Finding>& out);

/// Rule 4: HOTC_GUARDED_BY / HOTC_WRITE_GUARDED_BY fields only touched
/// while the named mutex is held.
void check_guarded_by(const Model& model, std::vector<Finding>& out);

/// Rule 5: no allocation, locking or non-signal-safe libc reachable from
/// a signal-root (the BlackBox dump path).
void check_signal_purity(const Model& model, const RuleOptions& options,
                         std::vector<Finding>& out);

/// Shared by rules 2, 3 and 5: true when toks[k] allocates — new,
/// make_unique / make_shared, a string stream, malloc / calloc / realloc,
/// std::to_string, or a std::string temporary or by-value local.
bool is_alloc_ident(const std::vector<Token>& toks, std::size_t k);

/// A comment holding `marker` on `line` or the line above suppresses.
bool line_allows(const LexedFile& file, int line, const char* marker);

/// Shared by rules 3 and 5: breadth-first walk of the call graph from
/// `root`, calling visit(fn, path) — path is the call chain, for
/// diagnostics — on every reachable function whose file lies under one of
/// `dirs` (any file when options.all_in_scope).  Out-of-scope functions,
/// and cold-path ones when `stop_at_cold`, are barriers.
void walk_from(const Model& model, std::size_t root,
               const RuleOptions& options,
               const std::vector<std::string>& dirs, bool stop_at_cold,
               const std::function<void(const Function&, const std::string&)>&
                   visit);

/// Shared helper: resolve an acquisition/guard expression in `fn`'s
/// context, using receiver types when the expression is qualified.
const MutexDecl* resolve_mutex_expr(const Model& model, const Function& fn,
                                    const std::string& expr);

}  // namespace hotc::analyze
