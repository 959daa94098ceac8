// Model extraction: token streams -> functions, fields, mutexes, calls.
#include "model.hpp"

#include <algorithm>
#include <cassert>

namespace hotc::analyze {
namespace {

const char* kCallKeywords[] = {
    "if",         "for",         "while",    "switch",           "return",
    "sizeof",     "alignof",     "decltype", "static_cast",      "catch",
    "throw",      "noexcept",    "new",      "delete",           "alignas",
    "co_await",   "co_return",   "typeid",   "dynamic_cast",     "const_cast",
    "reinterpret_cast"};

bool is_call_keyword(const std::string& s) {
  for (const char* k : kCallKeywords)
    if (s == k) return true;
  return false;
}

bool is_qual_token(const std::string& s) {
  return s == "const" || s == "override" || s == "final" || s == "noexcept" ||
         s == "volatile" || s == "&" || s == "&&";
}

bool is_annotation_macro(const std::string& s) {
  return s.rfind("HOTC_", 0) == 0;
}

/// Find the matching close for tokens[i] (an open punct) scanning forward.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t i,
                          const char* open, const char* close) {
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (toks[j].text == open) ++depth;
    if (toks[j].text == close && --depth == 0) return j;
  }
  return toks.size();
}

std::string join_tokens(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end; ++i) out += toks[i].text;
  return out;
}

struct Scope {
  enum Kind { kNamespace, kClass, kSkip } kind = kNamespace;
  std::string name;  // joined qualified component ("a::b" for namespaces)
};

/// Extraction context shared across one file's walk.  Extraction runs in
/// two passes over every file: pass 1 (collect_decls) harvests ranks,
/// mutex bindings, guarded fields, field types and declaration-site
/// annotations; pass 2 (collect_funcs) records function bodies, which may
/// reference declarations from files lexed later in pass 1's order.
struct Extractor {
  Model& model;
  LexedFile& file;
  std::size_t file_index;
  bool collect_decls;
  bool collect_funcs;
  std::vector<Scope> scopes;
  // (qualified class::name) -> requires expressions from declarations.
  std::map<std::string, std::vector<std::string>>& decl_requires;
  std::map<std::string, bool>& decl_no_ts;
  // Type parameters of the template header just read, for the class (if
  // any) it introduces.
  std::vector<std::string> template_params = {};

  [[nodiscard]] std::string qualified(const std::string& leaf) const {
    std::string out;
    for (const auto& s : scopes) {
      if (s.name.empty()) continue;
      if (!out.empty()) out += "::";
      out += s.name;
    }
    if (!leaf.empty()) {
      if (!out.empty()) out += "::";
      out += leaf;
    }
    return out;
  }

  [[nodiscard]] std::string enclosing_class() const {
    std::string out;
    for (const auto& s : scopes) {
      if (s.name.empty()) continue;
      if (!out.empty()) out += "::";
      out += s.name;
    }
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it)
      if (it->kind == Scope::kClass) return out;
    return "";
  }

  [[nodiscard]] bool in_class() const {
    return !scopes.empty() && scopes.back().kind == Scope::kClass;
  }

  void run();
  std::size_t handle_enum(std::size_t i);
  std::size_t handle_statement(std::size_t i);
  void harvest_declaration(std::size_t begin, std::size_t end);
  void harvest_function(std::size_t stmt_begin, std::size_t body_open,
                        std::size_t body_close, bool saw_ctor_colon,
                        std::size_t colon_pos);
  void harvest_ctor_inits(const std::string& cls, std::size_t colon_pos,
                          std::size_t body_open);
  void walk_body(Function& fn, std::size_t begin, std::size_t end);
  void parse_params(Function& fn, std::size_t lparen, std::size_t rparen);
  [[nodiscard]] bool line_has_marker(int line, const std::string& marker) const;
};

bool Extractor::line_has_marker(int line,
                                const std::string& marker) const {
  for (int l = line - 2; l <= line; ++l) {
    auto it = file.comments.find(l);
    if (it != file.comments.end() &&
        it->second.find(marker) != std::string::npos)
      return true;
  }
  return false;
}

/// Skip a balanced template argument list starting at '<'; returns the
/// index just past the matching '>'.  ">>" closes two levels.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  std::size_t j = i;
  while (j < toks.size()) {
    const std::string& t = toks[j].text;
    if (t == "<" || t == "<<") depth += (t == "<<") ? 2 : 1;
    else if (t == ">" || t == ">>") depth -= (t == ">>") ? 2 : 1;
    else if (t == ";" || t == "{") return i + 1;  // malformed: bail
    ++j;
    if (depth <= 0) return j;
  }
  return j;
}

/// Index of the '<' matching the '>' (or ">>") at `close`, scanning back
/// no further than `floor`; `floor` when none matches.
std::size_t match_angle_back(const std::vector<Token>& toks,
                             std::size_t close, std::size_t floor) {
  int depth = 0;
  for (std::size_t j = close + 1; j-- > floor;) {
    const std::string& t = toks[j].text;
    if (t == ">" || t == ">>") depth += (t == ">>") ? 2 : 1;
    else if (t == "<" && --depth == 0) return j;
  }
  return floor;
}

std::size_t Extractor::handle_enum(std::size_t i) {
  const auto& toks = file.tokens;
  std::size_t j = i + 1;  // past "enum"
  if (j < toks.size() && (toks[j].text == "class" || toks[j].text == "struct"))
    ++j;
  std::string name;
  if (j < toks.size() && toks[j].kind == TokKind::kIdent) name = toks[j++].text;
  while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") ++j;
  if (j >= toks.size() || toks[j].text == ";") return j + 1;
  const std::size_t close = match_forward(toks, j, "{", "}");
  if (name == "LockRank" && collect_decls) {
    std::uint64_t next = 0;
    for (std::size_t k = j + 1; k < close; ++k) {
      if (toks[k].kind != TokKind::kIdent) continue;
      const std::string ename = toks[k].text;
      std::uint64_t value = next;
      if (k + 2 < close && toks[k + 1].text == "=" &&
          toks[k + 2].kind == TokKind::kNumber)
        value = std::stoull(toks[k + 2].text, nullptr, 0);
      model.ranks.push_back({ename, value});
      next = value + 1;
      // Skip to the comma ending this enumerator.
      while (k < close && toks[k].text != ",") ++k;
    }
  }
  // Past "};"
  std::size_t end = close + 1;
  if (end < toks.size() && toks[end].text == ";") ++end;
  return end;
}

void Extractor::run() {
  const auto& toks = file.tokens;
  std::size_t i = 0;
  while (i < toks.size()) {
    const std::string& t = toks[i].text;
    if (t == "}") {
      if (!scopes.empty()) scopes.pop_back();
      ++i;
      if (i < toks.size() && toks[i].text == ";") ++i;
      continue;
    }
    if (t == "namespace") {
      std::size_t j = i + 1;
      std::string name;
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";" &&
             toks[j].text != "=") {
        name += toks[j].text;
        ++j;
      }
      if (j < toks.size() && toks[j].text == "{") {
        scopes.push_back({Scope::kNamespace, name});
        i = j + 1;
      } else {
        // namespace alias or ill-formed; skip the statement.
        while (j < toks.size() && toks[j].text != ";") ++j;
        i = j + 1;
      }
      continue;
    }
    if (t == "template") {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") j = skip_angles(toks, j);
      template_params.clear();
      for (std::size_t k = i + 2; k + 1 < j; ++k) {
        if ((toks[k].text == "class" || toks[k].text == "typename") &&
            toks[k + 1].kind == TokKind::kIdent)
          template_params.push_back(toks[k + 1].text);
      }
      i = j;
      continue;
    }
    if (t == "enum") {
      i = handle_enum(i);
      continue;
    }
    if (t == "class" || t == "struct" || t == "union") {
      std::size_t j = i + 1;
      std::string name;
      // Skip attributes / alignas / annotation macros before the name.
      while (j < toks.size()) {
        if (toks[j].kind == TokKind::kIdent && !is_annotation_macro(toks[j].text) &&
            toks[j].text != "alignas") {
          name = toks[j].text;
          ++j;
          break;
        }
        if (toks[j].text == "(")
          j = match_forward(toks, j, "(", ")") + 1;
        else if (toks[j].text == "[")
          j = match_forward(toks, j, "[", "]") + 1;
        else
          ++j;
      }
      // Forward declaration / variable of elaborated type?
      std::size_t k = j;
      while (k < toks.size() && toks[k].text != "{" && toks[k].text != ";")
        ++k;
      if (k >= toks.size() || toks[k].text == ";") {
        template_params.clear();
        i = k + 1;
        continue;
      }
      scopes.push_back({Scope::kClass, name});
      if (collect_decls) {
        for (const auto& p : template_params)
          model.template_params.insert({qualified(""), p});
      }
      template_params.clear();
      i = k + 1;
      continue;
    }
    if ((t == "public" || t == "private" || t == "protected") &&
        i + 1 < toks.size() && toks[i + 1].text == ":") {
      i += 2;
      continue;
    }
    if (t == "extern" && i + 1 < toks.size() &&
        toks[i + 1].kind == TokKind::kString) {
      i += 2;  // extern "C" — the '{' (if any) becomes a namespace-ish skip
      if (i < toks.size() && toks[i].text == "{") {
        scopes.push_back({Scope::kNamespace, ""});
        ++i;
      }
      continue;
    }
    if (t == ";") {
      ++i;
      continue;
    }
    template_params.clear();
    i = handle_statement(i);
  }
}

std::size_t Extractor::handle_statement(std::size_t i) {
  const auto& toks = file.tokens;
  std::size_t j = i;
  int paren = 0;
  bool saw_ctor_colon = false;
  bool saw_arrow = false;
  std::size_t colon_pos = 0;
  while (j < toks.size()) {
    const std::string& t = toks[j].text;
    if (t == "(") ++paren;
    else if (t == ")") --paren;
    else if (t == "->" && paren == 0) saw_arrow = true;
    else if (t == ":" && paren == 0 && j > i && toks[j - 1].text == ")") {
      saw_ctor_colon = true;
      colon_pos = j;
    } else if (t == ";" && paren == 0) {
      harvest_declaration(i, j);
      return j + 1;
    } else if (t == "<" && j > i && toks[j - 1].kind == TokKind::kIdent &&
               paren == 0) {
      j = skip_angles(toks, j);
      continue;
    } else if (t == "{" && paren == 0) {
      const std::string prev = (j > i) ? toks[j - 1].text : "";
      const bool body = prev == ")" || is_qual_token(prev) ||
                        (saw_arrow && (prev == ">" || prev == ">>")) ||
                        (saw_ctor_colon && prev == "}") ||
                        (j > i && toks[j - 1].kind == TokKind::kIdent &&
                         is_annotation_macro(prev));
      if (body) {
        const std::size_t close = match_forward(toks, j, "{", "}");
        harvest_function(i, j, close, saw_ctor_colon, colon_pos);
        std::size_t end = close + 1;
        if (end < toks.size() && toks[end].text == ";") ++end;
        return end;
      }
      // Braced initializer / lambda body embedded in a declaration.
      j = match_forward(toks, j, "{", "}") + 1;
      continue;
    }
    ++j;
  }
  return j;
}

/// Strip trailing initializer / annotation-macro groups from a class-scope
/// declaration and classify it as a method declaration or a field.
void Extractor::harvest_declaration(std::size_t begin, std::size_t end) {
  const auto& toks = file.tokens;
  if (end <= begin || !collect_decls) return;

  const std::string cls = enclosing_class();

  // --- annotation macros anywhere in the statement ----------------------
  std::vector<std::pair<std::string, std::string>> annos;  // (macro, args)
  for (std::size_t k = begin; k < end; ++k) {
    if (toks[k].kind != TokKind::kIdent || !is_annotation_macro(toks[k].text))
      continue;
    std::string args;
    if (k + 1 < end && toks[k + 1].text == "(") {
      const std::size_t close = match_forward(toks, k + 1, "(", ")");
      args = join_tokens(toks, k + 2, close);
    }
    annos.emplace_back(toks[k].text, args);
  }

  // --- guarded fields ---------------------------------------------------
  for (std::size_t k = begin; k < end; ++k) {
    if (toks[k].kind != TokKind::kIdent) continue;
    const std::string& m = toks[k].text;
    GuardKind kind;
    if (m == "HOTC_GUARDED_BY" || m == "HOTC_PT_GUARDED_BY")
      kind = GuardKind::kGuarded;
    else if (m == "HOTC_WRITE_GUARDED_BY")
      kind = GuardKind::kWriteGuarded;
    else if (m == "HOTC_CALLER_SERIALIZED")
      kind = GuardKind::kCallerSerialized;
    else
      continue;
    if (k == begin || toks[k - 1].kind != TokKind::kIdent) continue;
    std::string guard;
    if (k + 1 < end && toks[k + 1].text == "(") {
      const std::size_t close = match_forward(toks, k + 1, "(", ")");
      guard = join_tokens(toks, k + 2, close);
    }
    model.guarded.push_back({cls, toks[k - 1].text, kind, guard,
                             file.rel_path, toks[k].line});
  }

  // --- strip trailing initializer --------------------------------------
  std::size_t e = end;
  {
    int depth = 0;
    for (std::size_t k = begin; k < end; ++k) {
      const std::string& t = toks[k].text;
      if (t == "(" || t == "[") ++depth;
      else if (t == ")" || t == "]") --depth;
      else if (t == "{" && depth == 0) {
        // Braced init directly after a declarator or '='.
        if (k > begin && (toks[k - 1].kind == TokKind::kIdent ||
                          toks[k - 1].text == "=")) {
          e = (k > begin && toks[k - 1].text == "=") ? k - 1 : k;
          break;
        }
        k = match_forward(toks, k, "{", "}");
      } else if (t == "=" && depth == 0 && k > begin &&
                 toks[k - 1].text != "operator") {
        e = k;
        break;
      }
    }
  }
  // Strip trailing qualifiers and annotation macro groups.
  while (e > begin) {
    const std::string& t = toks[e - 1].text;
    if (is_qual_token(t)) {
      --e;
      continue;
    }
    if (t == ")") {
      const std::size_t open = [&] {
        int d = 0;
        for (std::size_t k = e; k-- > begin;) {
          if (toks[k].text == ")") ++d;
          if (toks[k].text == "(" && --d == 0) return k;
        }
        return begin;
      }();
      if (open > begin && toks[open - 1].kind == TokKind::kIdent &&
          is_annotation_macro(toks[open - 1].text)) {
        e = open - 1;
        continue;
      }
      break;  // parameter list: a method declaration
    }
    if (toks[e - 1].kind == TokKind::kIdent &&
        is_annotation_macro(toks[e - 1].text)) {
      --e;
      continue;
    }
    break;
  }
  if (e <= begin) return;

  if (toks[e - 1].text == ")") {
    // Method declaration: record HOTC_REQUIRES / NO_TS for the definition.
    int d = 0;
    std::size_t open = begin;
    for (std::size_t k = e; k-- > begin;) {
      if (toks[k].text == ")") ++d;
      if (toks[k].text == "(" && --d == 0) {
        open = k;
        break;
      }
    }
    if (open == begin || toks[open - 1].kind != TokKind::kIdent) return;
    const std::string name = toks[open - 1].text;
    const std::string key = qualified(name);
    for (const auto& [macro, args] : annos) {
      if (macro == "HOTC_REQUIRES" && !args.empty())
        decl_requires[key].push_back(args);
      if (macro == "HOTC_NO_THREAD_SAFETY_ANALYSIS") decl_no_ts[key] = true;
    }
    return;
  }

  if (!in_class()) return;
  if (toks[e - 1].kind != TokKind::kIdent) return;

  // Field declaration: record its type's last identifier for receiver
  // resolution, and harvest RankedMutex rank bindings from a braced init.
  const std::string field = toks[e - 1].text;
  std::string type_last;
  bool is_ranked_mutex = false;
  for (std::size_t k = begin; k + 1 < e; ++k) {
    if (toks[k].kind != TokKind::kIdent) continue;
    const std::string& t = toks[k].text;
    if (t == "mutable" || t == "const" || t == "static" || t == "constexpr" ||
        t == "inline" || t == "volatile" || t == "using" || t == "typedef" ||
        t == "friend" || is_annotation_macro(t))
      continue;
    type_last = t;
    if (t == "RankedMutex" || t == "BasicRankedMutex") is_ranked_mutex = true;
  }
  if (!type_last.empty())
    model.field_types[{cls, field}] = type_last;

  if (is_ranked_mutex) {
    MutexDecl decl{cls, field, "", 0, true, 0, file.rel_path,
                   toks[e - 1].line};
    // Braced init: RankedMutex mu_{LockRank::kX, seq, "label"};
    for (std::size_t k = e; k + 2 < end; ++k) {
      if (toks[k].text == "LockRank" && toks[k + 1].text == "::") {
        decl.band_name = toks[k + 2].text;
        if (const RankBand* b = model.band_for(decl.band_name))
          decl.band = b->band;
        std::size_t s = k + 3;
        if (s < end && toks[s].text == ",") {
          ++s;
          if (s < end && toks[s].kind == TokKind::kNumber &&
              s + 1 < end && toks[s + 1].text == ",") {
            decl.seq = std::stoull(toks[s].text, nullptr, 0);
          } else {
            decl.seq_static = false;
          }
        }
        break;
      }
    }
    // A ctor-init-list binding for this field (either order) wins over a
    // bare declaration; never keep both.
    const bool bound_exists = std::any_of(
        model.mutexes.begin(), model.mutexes.end(), [&](const MutexDecl& m) {
          return m.cls == cls && m.field == field && !m.band_name.empty();
        });
    if (!decl.band_name.empty() || !bound_exists) {
      if (!decl.band_name.empty())
        model.mutexes.erase(
            std::remove_if(model.mutexes.begin(), model.mutexes.end(),
                           [&](const MutexDecl& m) {
                             return m.cls == cls && m.field == field &&
                                    m.band_name.empty();
                           }),
            model.mutexes.end());
      if (!bound_exists) model.mutexes.push_back(decl);
    }
  }
}

void Extractor::harvest_ctor_inits(const std::string& cls,
                                   std::size_t colon_pos,
                                   std::size_t body_open) {
  const auto& toks = file.tokens;
  std::size_t k = colon_pos + 1;
  while (k < body_open) {
    if (toks[k].kind != TokKind::kIdent) {
      ++k;
      continue;
    }
    const std::string field = toks[k].text;
    if (k + 1 >= body_open ||
        (toks[k + 1].text != "(" && toks[k + 1].text != "{")) {
      ++k;
      continue;
    }
    const bool paren = toks[k + 1].text == "(";
    const std::size_t close = paren
                                  ? match_forward(toks, k + 1, "(", ")")
                                  : match_forward(toks, k + 1, "{", "}");
    // mu(LockRank::kShareRegistry, index, "share.registry")
    for (std::size_t a = k + 2; a + 2 < close; ++a) {
      if (toks[a].text == "LockRank" && toks[a + 1].text == "::") {
        MutexDecl decl{cls, field, toks[a + 2].text, 0, true, 0,
                       file.rel_path, toks[k].line};
        if (const RankBand* b = model.band_for(decl.band_name))
          decl.band = b->band;
        std::size_t s = a + 3;
        if (s < close && toks[s].text == ",") {
          ++s;
          if (s < close && toks[s].kind == TokKind::kNumber &&
              s + 1 < close && toks[s + 1].text == ",") {
            decl.seq = std::stoull(toks[s].text, nullptr, 0);
          } else {
            decl.seq_static = false;
          }
        }
        // The ctor binding wins over a bare field declaration.
        model.mutexes.erase(
            std::remove_if(model.mutexes.begin(), model.mutexes.end(),
                           [&](const MutexDecl& m) {
                             return m.cls == cls && m.field == field &&
                                    m.band_name.empty();
                           }),
            model.mutexes.end());
        model.mutexes.push_back(decl);
        break;
      }
    }
    k = close + 1;
    if (k < body_open && toks[k].text == ",") ++k;
  }
}

void Extractor::parse_params(Function& fn, std::size_t lparen,
                             std::size_t rparen) {
  const auto& toks = file.tokens;
  std::size_t start = lparen + 1;
  int depth = 0;
  auto flush = [&](std::size_t s, std::size_t e2) {
    // declarator = last ident; type = last ident before the declarator.
    std::string name, type;
    for (std::size_t k = e2; k-- > s;) {
      if (toks[k].kind == TokKind::kIdent) {
        if (name.empty()) {
          name = toks[k].text;
        } else if (toks[k].text != "const" && toks[k].text != "struct" &&
                   toks[k].text != "typename") {
          type = toks[k].text;
          break;
        }
      }
    }
    if (!name.empty() && !type.empty()) fn.local_types[name] = type;
  };
  for (std::size_t k = start; k < rparen; ++k) {
    const std::string& t = toks[k].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    else if (t == ")" || t == "]" || t == "}") --depth;
    else if (t == "<") {
      k = skip_angles(toks, k) - 1;
    } else if (t == "," && depth == 0) {
      flush(start, k);
      start = k + 1;
    }
  }
  if (rparen > start) flush(start, rparen);
}

void Extractor::harvest_function(std::size_t stmt_begin,
                                 std::size_t body_open,
                                 std::size_t body_close, bool saw_ctor_colon,
                                 std::size_t colon_pos) {
  const auto& toks = file.tokens;
  // Find the parameter-list '(' : first ident (or operator token run)
  // directly followed by '(' outside template args.
  std::size_t name_pos = stmt_begin;
  bool found = false;
  const std::size_t search_end = saw_ctor_colon ? colon_pos : body_open;
  for (std::size_t k = stmt_begin; k + 1 < search_end; ++k) {
    const std::string& t = toks[k].text;
    if (t == "<" && k > stmt_begin && toks[k - 1].kind == TokKind::kIdent) {
      k = skip_angles(toks, k) - 1;
      continue;
    }
    if (toks[k].kind == TokKind::kIdent && toks[k + 1].text == "(" &&
        !is_call_keyword(t) && !is_annotation_macro(t) && t != "operator") {
      name_pos = k;
      found = true;
      break;
    }
    if (t == "operator") {  // skip the whole operator-id
      while (k + 1 < search_end && toks[k + 1].text != "(") ++k;
    }
  }
  if (!found) return;

  Function fn;
  fn.file = file.rel_path;
  fn.file_index = file_index;
  fn.name = toks[name_pos].text;
  fn.line = toks[name_pos].line;
  fn.body_begin = body_open;
  // An unmatched body brace (match_forward hit its limit) must not push
  // body_end past the token stream: every downstream walk indexes up to
  // body_end.
  fn.body_end = std::min(body_close + 1, toks.size());

  // Class qualification: idents joined by "::" immediately before the name.
  std::vector<std::string> chain;
  {
    std::size_t k = name_pos;
    bool dtor = false;
    if (k > stmt_begin && toks[k - 1].text == "~") {
      dtor = true;
      --k;
    }
    while (k >= 2 && toks[k - 1].text == "::") {
      std::size_t q = k - 2;
      // `ThreadPool<Task>::post`: the class is the name before the
      // template arguments.
      if (toks[q].text == ">" || toks[q].text == ">>") {
        q = match_angle_back(toks, q, stmt_begin);
        if (q == stmt_begin) break;
        --q;
      }
      if (toks[q].kind != TokKind::kIdent) break;
      chain.insert(chain.begin(), toks[q].text);
      k = q;
    }
    fn.is_dtor = dtor;
  }
  std::string cls = enclosing_class();
  if (!chain.empty()) {
    // Out-of-line definition: qualify the Class::name chain with the
    // namespaces currently open (enclosing_class() is empty here).
    cls = qualified("");
    for (const auto& c : chain) {
      if (!cls.empty()) cls += "::";
      cls += c;
    }
  }
  fn.cls = cls;
  fn.qual_name = cls.empty() ? qualified(fn.name)
                             : cls + "::" + fn.name;
  const std::string cls_leaf = last_component(cls);
  if (!cls.empty() && fn.name == cls_leaf && !fn.is_dtor) fn.is_ctor = true;
  if (fn.is_dtor) fn.is_ctor = false;

  // Trailing annotations between ')' and the body.
  const std::size_t rparen = match_forward(toks, name_pos + 1, "(", ")");
  parse_params(fn, name_pos + 1, rparen);
  for (std::size_t k = rparen; k < body_open; ++k) {
    if (toks[k].kind != TokKind::kIdent) continue;
    if (toks[k].text == "HOTC_REQUIRES" && k + 1 < body_open &&
        toks[k + 1].text == "(") {
      const std::size_t close = match_forward(toks, k + 1, "(", ")");
      fn.requires_caps.push_back(join_tokens(toks, k + 2, close));
    }
    if (toks[k].text == "HOTC_NO_THREAD_SAFETY_ANALYSIS")
      fn.no_ts_analysis = true;
  }
  // Declaration-site annotations recorded earlier (header decl).
  if (auto it = decl_requires.find(fn.qual_name); it != decl_requires.end())
    for (const auto& r : it->second) fn.requires_caps.push_back(r);
  if (decl_no_ts.count(fn.qual_name)) fn.no_ts_analysis = true;

  // Comment markers above the declaration.
  const int decl_line = toks[stmt_begin].line;
  fn.hot_path_root = line_has_marker(decl_line, "hotc-analyze: hot-path-root");
  fn.cold_path = line_has_marker(decl_line, "hotc-analyze: cold-path");
  fn.signal_root = line_has_marker(decl_line, "hotc-analyze: signal-root");

  if (saw_ctor_colon && fn.is_ctor && collect_decls)
    harvest_ctor_inits(fn.cls, colon_pos, body_open);
  if (!collect_funcs) return;

  walk_body(fn, body_open, body_close + 1);

  model.by_name[fn.name].push_back(model.functions.size());
  model.functions.push_back(std::move(fn));
}

void Extractor::walk_body(Function& fn, std::size_t begin, std::size_t end) {
  const auto& toks = file.tokens;
  end = std::min(end, toks.size());  // unmatched-brace hardening
  int depth = 0;
  auto allowed_at = [&](int line) {
    for (int l = line - 1; l <= line; ++l) {
      auto it = file.comments.find(l);
      if (it != file.comments.end() &&
          it->second.find("hotc-analyze: allow(lock-order)") !=
              std::string::npos)
        return true;
    }
    return false;
  };
  for (std::size_t k = begin; k < end; ++k) {
    const std::string& t = toks[k].text;
    if (t == "{") {
      ++depth;
      continue;
    }
    if (t == "}") {
      --depth;
      continue;
    }
    if (toks[k].kind != TokKind::kIdent) continue;

    // RAII guard declarations: [const] RankedGuard name(expr) / {expr}.
    if (t == "RankedGuard" || t == "RankedLock" || t == "lock_guard" ||
        t == "scoped_lock" || t == "unique_lock") {
      std::size_t j = k + 1;
      if (j < end && toks[j].text == "<") j = skip_angles(toks, j);
      if (j < end && toks[j].kind == TokKind::kIdent) ++j;  // variable name
      if (j < end && (toks[j].text == "(" || toks[j].text == "{")) {
        const bool paren = toks[j].text == "(";
        const std::size_t close = paren ? match_forward(toks, j, "(", ")")
                                        : match_forward(toks, j, "{", "}");
        Acquisition a;
        a.expr = join_tokens(toks, j + 1, close);
        a.line = toks[k].line;
        a.depth = depth;
        a.tok = k;
        a.allowed = allowed_at(a.line);
        fn.acquisitions.push_back(a);
        k = close;
        continue;
      }
      continue;
    }

    // Local variable type bindings: Type[&|*] name = / ( / { ...
    if (!is_call_keyword(t) && k + 2 < end &&
        (toks[k + 1].text == "&" || toks[k + 1].text == "*") &&
        toks[k + 2].kind == TokKind::kIdent && k + 3 < end &&
        (toks[k + 3].text == "=" || toks[k + 3].text == "(" ||
         toks[k + 3].text == "{")) {
      if (t != "auto") fn.local_types[toks[k + 2].text] = t;
    }

    if (k + 1 < end && toks[k + 1].text == "(") {
      if (is_call_keyword(t) || is_annotation_macro(t)) continue;
      // A declaration like `Type name(...)` was handled above only for
      // ref/ptr; plain `Type name(args)` still looks like a call to
      // `Type` — acceptable noise (no function named after a type).
      CallSite c;
      c.callee = t;
      c.line = toks[k].line;
      c.depth = depth;
      c.tok = k;
      if (k >= 2 && (toks[k - 1].text == "." || toks[k - 1].text == "->") &&
          toks[k - 2].kind == TokKind::kIdent)
        c.receiver = toks[k - 2].text;
      if (k >= 2 && toks[k - 1].text == "::" &&
          toks[k - 2].kind == TokKind::kIdent)
        c.qualifier = toks[k - 2].text;
      if (t == "lock_all") {
        Acquisition a;
        a.expr = "lock_all";
        a.line = toks[k].line;
        a.depth = depth;
        a.tok = k;
        a.is_lock_all = true;
        a.allowed = allowed_at(a.line);
        fn.acquisitions.push_back(a);
      }
      // Container-of-locks pattern: locks.emplace_back(shards_[i]->mu).
      if (t == "emplace_back" || t == "push_back") {
        const std::size_t close = match_forward(toks, k + 1, "(", ")");
        const std::string arg = join_tokens(toks, k + 2, close);
        const std::string leaf = last_component(arg);
        for (const auto& m : model.mutexes) {
          if (m.field == leaf && !arg.empty()) {
            Acquisition a;
            a.expr = arg;
            a.line = toks[k].line;
            a.depth = depth;
            a.tok = k;
            a.stored = true;
            a.allowed = allowed_at(a.line);
            fn.acquisitions.push_back(a);
            break;
          }
        }
      }
      fn.calls.push_back(c);
    }
  }
}

}  // namespace

std::string last_component(const std::string& expr) {
  std::size_t best = 0;
  for (std::size_t i = 0; i + 1 < expr.size(); ++i) {
    if ((expr[i] == ':' && expr[i + 1] == ':') ||
        (expr[i] == '-' && expr[i + 1] == '>'))
      best = i + 2;
    else if (expr[i] == '.')
      best = i + 1;
  }
  // Also handle a trailing single '.' separator at the last position.
  if (!expr.empty())
    for (std::size_t i = best; i + 1 < expr.size(); ++i)
      if (expr[i] == '.') best = i + 1;
  return expr.substr(best);
}

const MutexDecl* Model::resolve_mutex(const std::string& ctx,
                                      const std::string& expr) const {
  const std::string leaf = last_component(expr);
  const MutexDecl* exact = nullptr;
  const MutexDecl* nested = nullptr;
  const MutexDecl* outer = nullptr;
  const MutexDecl* any = nullptr;
  int any_count = 0;
  for (const auto& m : mutexes) {
    if (m.field != leaf) continue;
    ++any_count;
    any = &m;
    if (m.cls == ctx) exact = &m;
    if (!ctx.empty() && m.cls.rfind(ctx + "::", 0) == 0) nested = &m;
    if (!m.cls.empty() && ctx.rfind(m.cls + "::", 0) == 0) outer = &m;
  }
  if (exact) return exact;
  if (nested) return nested;
  if (outer) return outer;
  if (any_count == 1) return any;
  return nullptr;
}

std::vector<std::size_t> Model::resolve_call(const Function& caller,
                                             const CallSite& call) const {
  auto it = by_name.find(call.callee);
  if (it == by_name.end()) return {};
  const auto& cands = it->second;
  // One function, or one class's overloads: nothing to choose between.
  if (std::all_of(cands.begin(), cands.end(), [&](std::size_t idx) {
        return functions[idx].cls == functions[cands[0]].cls;
      }))
    return cands;
  std::vector<std::size_t> out;
  // Class::method(...): that class's methods.  A namespace qualifier
  // matches no class and falls through to the free-call rules below.
  if (!call.qualifier.empty()) {
    for (std::size_t idx : cands)
      if (last_component(functions[idx].cls) == call.qualifier)
        out.push_back(idx);
    if (!out.empty()) return out;
  }

  // Receiver-typed resolution.
  std::string rtype;
  if (!call.receiver.empty() && call.receiver != "this") {
    if (auto lt = caller.local_types.find(call.receiver);
        lt != caller.local_types.end())
      rtype = lt->second;
    if (rtype.empty()) {
      // Fields of the enclosing class (or a class nested in it).
      for (const auto& [key, type] : field_types) {
        if (key.second != call.receiver) continue;
        if (key.first == caller.cls ||
            key.first.rfind(caller.cls + "::", 0) == 0 ||
            caller.cls.rfind(key.first + "::", 0) == 0) {
          rtype = type;
          break;
        }
      }
    }
  }
  if (!rtype.empty()) {
    for (std::size_t idx : cands)
      if (last_component(functions[idx].cls) == rtype) out.push_back(idx);
    if (!out.empty()) return out;
    // Typed by the caller's class-template parameter: any instantiation,
    // so any same-named function, may be the callee.
    if (template_params.count({caller.cls, rtype})) return cands;
    return {};  // typed receiver of a class we know nothing about
  }
  if (call.receiver.empty() || call.receiver == "this") {
    for (std::size_t idx : cands)
      if (functions[idx].cls == caller.cls ||
          (!caller.cls.empty() &&
           functions[idx].cls.rfind(caller.cls + "::", 0) == 0))
        out.push_back(idx);
    if (!out.empty()) return out;
    for (std::size_t idx : cands)
      if (functions[idx].cls.empty()) out.push_back(idx);
    return out;
  }
  // Untyped receiver: only classes nested in (or enclosing) the caller's
  // are plausible; a blind union would attribute unrelated classes' locks
  // to this call site.
  for (std::size_t idx : cands) {
    const std::string& c = functions[idx].cls;
    if (c.empty()) continue;
    if (c == caller.cls || c.rfind(caller.cls + "::", 0) == 0 ||
        caller.cls.rfind(c + "::", 0) == 0)
      out.push_back(idx);
  }
  return out;
}

void build_model(Model& model) {
  std::map<std::string, std::vector<std::string>> decl_requires;
  std::map<std::string, bool> decl_no_ts;
  for (std::size_t f = 0; f < model.files.size(); ++f) {
    Extractor ex{model, model.files[f], f,
                 /*collect_decls=*/true, /*collect_funcs=*/false,
                 {}, decl_requires, decl_no_ts};
    ex.run();
  }
  for (std::size_t f = 0; f < model.files.size(); ++f) {
    Extractor ex{model, model.files[f], f,
                 /*collect_decls=*/false, /*collect_funcs=*/true,
                 {}, decl_requires, decl_no_ts};
    ex.run();
  }
  // Declaration-site annotations are complete after pass 1; attach them
  // to the recorded definitions.
  for (auto& fn : model.functions) {
    if (auto it = decl_requires.find(fn.qual_name);
        it != decl_requires.end()) {
      for (const auto& r : it->second)
        if (std::find(fn.requires_caps.begin(), fn.requires_caps.end(), r) ==
            fn.requires_caps.end())
          fn.requires_caps.push_back(r);
    }
    if (decl_no_ts.count(fn.qual_name)) fn.no_ts_analysis = true;
  }
}

}  // namespace hotc::analyze
