// Rule 2 (seqlock read purity) and rule 3 (transitive hot-path allocation).
#include <deque>
#include <map>
#include <set>

#include "rules.hpp"

namespace hotc::analyze {
namespace {

bool is_atomic_write_method(const std::string& t) {
  return t == "store" || t == "exchange" || t == "fetch_add" ||
         t == "fetch_sub" || t == "fetch_or" || t == "fetch_and" ||
         t == "fetch_xor" || t == "compare_exchange_weak" ||
         t == "compare_exchange_strong" || t == "write_begin" ||
         t == "write_end";
}

bool is_assign_op(const std::string& t) {
  return t == "=" || t == "+=" || t == "-=" || t == "*=" || t == "/=" ||
         t == "%=" || t == "&=" || t == "|=" || t == "^=" || t == "<<=" ||
         t == ">>=";
}

bool is_decl_keyword(const std::string& t) {
  return t == "if" || t == "for" || t == "while" || t == "return" ||
         t == "switch" || t == "case" || t == "else" || t == "const" ||
         t == "do";
}

std::size_t match_forward(const std::vector<Token>& toks, std::size_t i,
                          const char* open, const char* close,
                          std::size_t limit) {
  int depth = 0;
  for (std::size_t j = i; j < limit; ++j) {
    if (toks[j].text == open) ++depth;
    if (toks[j].text == close && --depth == 0) return j;
  }
  return limit;
}

// ---------------------------------------------------------------------------
// Rule 2
// ---------------------------------------------------------------------------

void seqlock_lambda_purity(const Model& model, const Function& fn,
                           std::size_t lbrace, std::size_t lclose,
                           std::vector<Finding>& out) {
  const auto& file = model.files[fn.file_index];
  const auto& toks = file.tokens;

  // Collect lambda-local declarations (loop vars, Type name = ..., auto).
  std::set<std::string> locals;
  for (std::size_t k = lbrace; k < lclose; ++k) {
    if (toks[k].kind != TokKind::kIdent || is_decl_keyword(toks[k].text))
      continue;
    std::size_t j = k + 1;
    while (j < lclose && (toks[j].text == "&" || toks[j].text == "*" ||
                          toks[j].text == "&&"))
      ++j;
    if (j < lclose && toks[j].kind == TokKind::kIdent && j + 1 < lclose &&
        (toks[j + 1].text == "=" || toks[j + 1].text == "{" ||
         toks[j + 1].text == ":" || toks[j + 1].text == ";"))
      locals.insert(toks[j].text);
  }

  auto report = [&](std::size_t k, const std::string& what) {
    Finding f;
    f.rule = "seqlock-purity";
    f.file = fn.file;
    f.line = toks[k].line;
    f.function = fn.qual_name;
    f.message = what + " inside a SeqLock read section (the section may "
                       "retry; it must be pure)";
    f.key = "seqlock-purity|" + fn.file + "|" + fn.qual_name + "|" +
            toks[k].text;
    out.push_back(f);
  };

  for (std::size_t k = lbrace + 1; k < lclose; ++k) {
    if (toks[k].kind != TokKind::kIdent) {
      // Assignment / increment targets.
      if (is_assign_op(toks[k].text) || toks[k].text == "++" ||
          toks[k].text == "--") {
        // Walk back to the root identifier of the assigned chain.
        std::size_t j = k;
        std::string root;
        while (j > lbrace) {
          --j;
          const std::string& p = toks[j].text;
          if (p == "]") {
            int d = 0;
            while (j > lbrace) {
              if (toks[j].text == "]") ++d;
              if (toks[j].text == "[" && --d == 0) break;
              --j;
            }
            continue;
          }
          if (toks[j].kind == TokKind::kIdent) {
            root = toks[j].text;
            if (j >= 2 && (toks[j - 1].text == "." ||
                           toks[j - 1].text == "->" ||
                           toks[j - 1].text == "::")) {
              j -= 1;
              continue;
            }
            break;
          }
          break;
        }
        // Increment may also be prefix: ++x — handled when we reach x? No:
        // scan forward for prefix form.
        if (root.empty() && (toks[k].text == "++" || toks[k].text == "--") &&
            k + 1 < lclose && toks[k + 1].kind == TokKind::kIdent)
          root = toks[k + 1].text;
        if (!root.empty() && !locals.count(root) &&
            !is_decl_keyword(root))
          report(k, "write to captured state ('" + root + "')");
      }
      continue;
    }
    const std::string& t = toks[k].text;
    if (is_atomic_write_method(t) && k >= 1 &&
        (toks[k - 1].text == "." || toks[k - 1].text == "->"))
      report(k, "atomic store/RMW ('" + t + "')");
    else if (is_alloc_ident(toks, k))
      report(k, "allocation ('" + t + "')");
  }
}

void seqlock_in(const Model& model, const Function& fn,
                std::vector<Finding>& out) {
  const std::string cls_leaf = last_component(fn.cls);
  if (cls_leaf == "SeqLock" || cls_leaf == "WriteGuard" ||
      cls_leaf == "ReadGuard")
    return;  // the primitive's own implementation
  const auto& toks = model.files[fn.file_index].tokens;

  for (std::size_t k = fn.body_begin; k + 2 < fn.body_end; ++k) {
    if (toks[k].text != "read" || toks[k].kind != TokKind::kIdent) continue;
    if (k == 0 || (toks[k - 1].text != "." && toks[k - 1].text != "->"))
      continue;
    if (toks[k + 1].text != "(") continue;
    std::size_t j = k + 2;
    if (j >= fn.body_end || toks[j].text != "[") continue;  // not a lambda
    j = match_forward(toks, j, "[", "]", fn.body_end) + 1;
    if (j < fn.body_end && toks[j].text == "(")
      j = match_forward(toks, j, "(", ")", fn.body_end) + 1;
    while (j < fn.body_end && toks[j].text != "{") ++j;
    if (j >= fn.body_end) continue;
    const std::size_t close = match_forward(toks, j, "{", "}", fn.body_end);
    seqlock_lambda_purity(model, fn, j, close, out);
    k = close;
  }

  // Manual write_begin/write_end sections.
  int opens = 0;
  bool in_section = false;
  for (std::size_t k = fn.body_begin; k < fn.body_end && k < toks.size();
       ++k) {
    if (toks[k].kind != TokKind::kIdent) continue;
    const std::string& t = toks[k].text;
    if (t == "write_begin" && k >= 1 &&
        (toks[k - 1].text == "." || toks[k - 1].text == "->")) {
      ++opens;
      in_section = true;
    } else if (t == "write_end" && k >= 1 &&
               (toks[k - 1].text == "." || toks[k - 1].text == "->")) {
      --opens;
      if (opens <= 0) in_section = false;
    } else if (t == "return" && in_section) {
      Finding f;
      f.rule = "seqlock-purity";
      f.file = fn.file;
      f.line = toks[k].line;
      f.function = fn.qual_name;
      f.message = "early return between write_begin() and write_end() "
                  "leaves the sequence odd (readers spin forever); use "
                  "SeqLock::WriteGuard";
      f.key = "seqlock-purity|" + fn.file + "|" + fn.qual_name + "|return";
      out.push_back(f);
    }
  }
  if (opens != 0) {
    Finding f;
    f.rule = "seqlock-purity";
    f.file = fn.file;
    f.line = fn.line;
    f.function = fn.qual_name;
    f.message = "unbalanced write_begin()/write_end() (" +
                std::to_string(opens) + " unmatched); use "
                "SeqLock::WriteGuard";
    f.key = "seqlock-purity|" + fn.file + "|" + fn.qual_name + "|unbalanced";
    out.push_back(f);
  }
}

// ---------------------------------------------------------------------------
// Rule 3
// ---------------------------------------------------------------------------

const char* kPoolHotMethods[] = {"acquire", "acquire_for_donation",
                                 "add_available", "remove", "mark_paused"};

// Continuous-profiler hook entry points (DESIGN.md §15): they run on
// already-slow paths, but from arbitrary lock contexts — an allocation
// there can deadlock inside a malloc-holding signal-free context and
// blows the ≤1 % enabled-profiler budget, so they are hot roots too.
const char* kProfHookMethods[] = {"on_lock_wait", "on_seqlock_retry",
                                  "on_task"};

// Snapshot-tier lookups that sit on the request miss path (ISSUE 9):
// every cold start pays a take() before falling through, so the store's
// consuming lookup must stay allocation-free like the pool hot methods.
const char* kSnapshotHotMethods[] = {"take", "peek"};

bool is_hot_root(const Function& fn) {
  if (fn.hot_path_root) return true;
  const std::string leaf = last_component(fn.cls);
  if (leaf == "RuntimePool" || leaf == "ShardedRuntimePool") {
    for (const char* m : kPoolHotMethods)
      if (fn.name == m) return true;
  }
  if (leaf == "Profiler") {
    for (const char* m : kProfHookMethods)
      if (fn.name == m) return true;
  }
  if (leaf == "CheckpointStore") {
    for (const char* m : kSnapshotHotMethods)
      if (fn.name == m) return true;
  }
  return false;
}

void scan_allocs(const Model& model, const Function& fn,
                 const std::string& path, std::set<std::string>& seen,
                 std::vector<Finding>& out) {
  const auto& file = model.files[fn.file_index];
  const auto& toks = file.tokens;
  for (std::size_t k = fn.body_begin; k < fn.body_end && k < toks.size();
       ++k) {
    if (toks[k].kind != TokKind::kIdent) continue;
    if (!is_alloc_ident(toks, k)) continue;
    if (line_allows(file, toks[k].line, "hot-path-alloc: allow")) continue;
    const std::string key = "hot-path-alloc|" + fn.file + "|" +
                            fn.qual_name + "|" + toks[k].text;
    if (!seen.insert(key).second) continue;
    Finding f;
    f.rule = "hot-path-alloc";
    f.file = fn.file;
    f.line = toks[k].line;
    f.function = fn.qual_name;
    f.message = "allocation ('" + toks[k].text +
                "') reachable from hot path: " + path;
    f.key = key;
    out.push_back(f);
  }
}

}  // namespace

bool is_alloc_ident(const std::vector<Token>& toks, std::size_t k) {
  const std::string& t = toks[k].text;
  if (t == "new" || t == "make_unique" || t == "make_shared" ||
      t == "stringstream" || t == "ostringstream" || t == "istringstream" ||
      t == "malloc" || t == "calloc" || t == "realloc")
    return true;
  // std:: only: the spec enums' to_string overloads return static text.
  if (t == "to_string")
    return k >= 2 && toks[k - 1].text == "::" && toks[k - 2].text == "std";
  if (t != "string" || k + 1 >= toks.size()) return false;
  // A temporary, `std::string(...)`, or a by-value local, `std::string s
  // = ...;` (a const& or a string_view is a different token sequence).
  const Token& next = toks[k + 1];
  return next.text == "(" || next.text == "{" ||
         (next.kind == TokKind::kIdent && next.text != "const");
}

bool line_allows(const LexedFile& file, int line, const char* marker) {
  for (int l = line - 1; l <= line; ++l) {
    auto it = file.comments.find(l);
    if (it != file.comments.end() &&
        it->second.find(marker) != std::string::npos)
      return true;
  }
  return false;
}

void walk_from(const Model& model, std::size_t root,
               const RuleOptions& options,
               const std::vector<std::string>& dirs, bool stop_at_cold,
               const std::function<void(const Function&, const std::string&)>&
                   visit) {
  const auto in_scope = [&](const std::string& rel_path) {
    if (options.all_in_scope) return true;
    for (const auto& dir : dirs)
      if (rel_path.find(dir) != std::string::npos) return true;
    return false;
  };
  std::map<std::size_t, std::string> path;
  std::deque<std::size_t> queue;
  path[root] = model.functions[root].qual_name;
  queue.push_back(root);
  while (!queue.empty()) {
    const std::size_t i = queue.front();
    queue.pop_front();
    const Function& fn = model.functions[i];
    if (stop_at_cold && fn.cold_path) continue;
    if (!in_scope(fn.file)) continue;
    visit(fn, path[i]);
    for (const auto& call : fn.calls) {
      for (std::size_t callee : model.resolve_call(fn, call)) {
        if (path.count(callee)) continue;
        path[callee] = path[i] + " -> " + model.functions[callee].qual_name;
        queue.push_back(callee);
      }
    }
  }
}

void check_seqlock_purity(const Model& model, std::vector<Finding>& out) {
  for (const auto& fn : model.functions) seqlock_in(model, fn, out);
}

void check_hot_path_alloc(const Model& model, const RuleOptions& options,
                          std::vector<Finding>& out) {
  std::set<std::string> seen;
  for (std::size_t r = 0; r < model.functions.size(); ++r) {
    if (!is_hot_root(model.functions[r])) continue;
    walk_from(model, r, options, options.scope_dirs, /*stop_at_cold=*/true,
              [&](const Function& fn, const std::string& path) {
                scan_allocs(model, fn, path, seen, out);
              });
  }
}

}  // namespace hotc::analyze
