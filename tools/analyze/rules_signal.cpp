// Rule 5 (signal purity): everything transitively reachable from an
// async-signal context must stay async-signal-safe.
//
// Roots are functions marked `// hotc-analyze: signal-root` (the
// BlackBox signal handler / pre-abort entry points and its dump path) —
// plus BlackBox::dump_now by name, since its marker sits on the header
// declaration while the body lives in the .cpp.  From each root the rule
// walks the call graph and flags, in any reachable function:
//
//   * allocation (the hot-path rule's test: new, make_unique,
//     std::to_string, std::string temporaries and by-value locals...)
//     — malloc may be held by the interrupted thread: instant deadlock;
//   * mutex acquisition (RankedGuard, lock_guard, unique_lock,
//     scoped_lock, .lock()) — same deadlock by another name;
//   * non-signal-safe libc (printf family, FILE* I/O, exit, time
//     formatting, iostreams) — none of it is on the signal-safe list.
//
// The walk is the hot-path rule's (walk_from) over the dump path's
// directories; it does not stop at cold-path marks, which excuse the
// request path, not a signal handler.  `// signal-purity: allow` on (or
// one line above) the offending line suppresses, for the rare justified
// case.
#include <set>

#include "rules.hpp"

namespace hotc::analyze {
namespace {

/// The dump path lives in obs/; its helpers may reach core/ and pool/.
const std::vector<std::string> kSignalScope = {"obs/", "core/", "pool/"};

bool is_guard_type(const std::string& t) {
  return t == "RankedGuard" || t == "lock_guard" || t == "unique_lock" ||
         t == "scoped_lock" || t == "shared_lock";
}

bool is_unsafe_libc(const std::string& t) {
  static const std::set<std::string> deny = {
      "printf", "fprintf", "sprintf", "snprintf", "vprintf",  "vfprintf",
      "puts",   "fputs",   "fopen",   "fwrite",   "fread",    "fclose",
      "fflush", "exit",    "free",    "cout",     "cerr",     "clog",
      "localtime", "gmtime", "strftime", "syslog", "getenv",  "abort"};
  return deny.count(t) != 0;
}

bool is_signal_root(const Function& fn) {
  if (fn.signal_root) return true;
  // The class-level root: the marker lives on the header declaration,
  // which carries no body, so anchor the definition by name too.
  return last_component(fn.cls) == "BlackBox" && fn.name == "dump_now";
}

void scan_function(const Model& model, const Function& fn,
                   const std::string& path, std::set<std::string>& seen,
                   std::vector<Finding>& out) {
  const auto& file = model.files[fn.file_index];
  const auto& toks = file.tokens;
  auto report = [&](std::size_t k, const std::string& what) {
    if (line_allows(file, toks[k].line, "signal-purity: allow")) return;
    const std::string key = "signal-purity|" + fn.file + "|" + fn.qual_name +
                            "|" + toks[k].text;
    if (!seen.insert(key).second) return;
    Finding f;
    f.rule = "signal-purity";
    f.file = fn.file;
    f.line = toks[k].line;
    f.function = fn.qual_name;
    f.message = what + " reachable from signal context: " + path;
    f.key = key;
    out.push_back(f);
  };

  for (std::size_t k = fn.body_begin; k < fn.body_end && k < toks.size();
       ++k) {
    if (toks[k].kind != TokKind::kIdent) continue;
    const std::string& t = toks[k].text;
    if (is_alloc_ident(toks, k)) {
      report(k, "allocation ('" + t + "')");
    } else if (is_guard_type(t)) {
      report(k, "mutex acquisition ('" + t + "')");
    } else if (t == "lock" && k >= 1 &&
               (toks[k - 1].text == "." || toks[k - 1].text == "->") &&
               k + 1 < toks.size() && toks[k + 1].text == "(") {
      report(k, "mutex acquisition ('.lock()')");
    } else if (is_unsafe_libc(t) && k + 1 < toks.size() &&
               (toks[k + 1].text == "(" || toks[k + 1].text == "<<")) {
      report(k, "non-signal-safe call ('" + t + "')");
    }
  }
}

}  // namespace

void check_signal_purity(const Model& model, const RuleOptions& options,
                         std::vector<Finding>& out) {
  std::set<std::string> seen;
  for (std::size_t r = 0; r < model.functions.size(); ++r) {
    if (!is_signal_root(model.functions[r])) continue;
    walk_from(model, r, options, kSignalScope, /*stop_at_cold=*/false,
              [&](const Function& fn, const std::string& path) {
                scan_function(model, fn, path, seen, out);
              });
  }
}

}  // namespace hotc::analyze
