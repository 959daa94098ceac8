// Program model for hotc_analyze: functions, fields, mutex bindings and a
// name-resolved call graph, recovered from the token streams.
//
// The model is deliberately syntactic.  It does not type-check; it tracks
// just enough structure — namespace/class nesting, ctor-init-lists, field
// declarations, RAII guard statements — for the four rule passes to reason
// about lock ranks, guarded state and reachability.  Where resolution is
// ambiguous the model keeps candidate sets and lets the rules decide how
// conservative to be.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "lexer.hpp"

namespace hotc::analyze {

/// One LockRank enumerator: band value plus name (kPoolShard = 50, ...).
struct RankBand {
  std::string name;
  std::uint64_t band = 0;
};

/// A RankedMutex member binding: which band (and, when static, which
/// sequence number) the mutex was constructed with.
struct MutexDecl {
  std::string cls;    // qualified owning class ("ShardedRuntimePool::Shard")
  std::string field;  // "mu_", "mu", "mutex_"
  std::string band_name;  // "kPoolShard"
  std::uint64_t band = 0;
  bool seq_static = true;     // false: seq is an expression (shard index)
  std::uint64_t seq = 0;      // valid when seq_static
  std::string file;
  int line = 0;
};

enum class GuardKind { kGuarded, kWriteGuarded, kCallerSerialized };

/// A field carrying HOTC_GUARDED_BY / HOTC_WRITE_GUARDED_BY /
/// HOTC_CALLER_SERIALIZED.
struct GuardedField {
  std::string cls;
  std::string field;
  GuardKind kind = GuardKind::kGuarded;
  std::string guard;  // normalized guard expression text ("mu_", "shard.mu")
  std::string file;
  int line = 0;
};

/// A lock acquisition site inside a function body.
struct Acquisition {
  std::string expr;   // normalized mutex expression ("mu_", "stripe.mu")
  int line = 0;
  int depth = 0;      // brace depth at the acquisition (for scope release)
  std::size_t tok = 0;       // token index in the owning file
  bool is_lock_all = false;  // ShardedRuntimePool::lock_all() batch
  bool stored = false;       // pushed into a container (outlives its scope)
  bool allowed = false;      // hotc-analyze: allow(lock-order) on this line
};

/// A call site inside a function body.
struct CallSite {
  std::string callee;    // bare name ("submit", "intern")
  std::string receiver;  // last receiver identifier, "" for free calls
  std::string qualifier;  // "RuntimeKey" in RuntimeKey::from_spec(...)
  int line = 0;
  int depth = 0;
  std::size_t tok = 0;  // token index in the owning file
};

struct Function {
  std::string qual_name;  // "hotc::cluster::ClusterHotC::submit"
  std::string cls;        // qualified class, "" for free functions
  std::string name;       // bare name
  std::string file;       // rel path
  std::size_t file_index = 0;  // index into Model::files
  int line = 0;
  std::size_t body_begin = 0;  // token index of '{'
  std::size_t body_end = 0;    // token index past matching '}'
  bool is_ctor = false;
  bool is_dtor = false;
  bool no_ts_analysis = false;
  bool hot_path_root = false;  // "hotc-analyze: hot-path-root"
  bool cold_path = false;      // "hotc-analyze: cold-path"
  bool signal_root = false;    // "hotc-analyze: signal-root"
  std::vector<std::string> requires_caps;  // HOTC_REQUIRES argument exprs
  std::vector<Acquisition> acquisitions;
  std::vector<CallSite> calls;
  std::map<std::string, std::string> local_types;  // locals + params
  // Filled by the fixpoint in rules_locks: bands this function may acquire
  // during a call to it (transitively).  band -> representative mutex name.
  std::map<std::uint64_t, std::string> eff_acquires;
  bool dynamic_seq_acquire = false;  // acquires a dynamic-seq mutex
};

/// (class, field) -> type name (last identifier of the declared type);
/// used to resolve receiver expressions like `shard.pool` or `backend_`.
using FieldTypeMap = std::map<std::pair<std::string, std::string>,
                              std::string>;

struct Model {
  std::vector<LexedFile> files;
  std::vector<RankBand> ranks;            // from enum class LockRank
  std::vector<MutexDecl> mutexes;
  std::vector<GuardedField> guarded;
  std::vector<Function> functions;
  FieldTypeMap field_types;
  // (qualified class template, type parameter name).
  std::set<std::pair<std::string, std::string>> template_params;
  // bare function name -> indices into `functions`.
  std::unordered_map<std::string, std::vector<std::size_t>> by_name;

  [[nodiscard]] const RankBand* band_for(const std::string& name) const {
    for (const auto& r : ranks)
      if (r.name == name) return &r;
    return nullptr;
  }

  /// Resolve a mutex expression seen in class `ctx` ("stripe.mu", "mu_") to
  /// its declaration.  Prefers a declaration in `ctx` or a class nested in
  /// it; falls back to a unique global match.
  [[nodiscard]] const MutexDecl* resolve_mutex(const std::string& ctx,
                                               const std::string& expr) const;

  /// Resolve a call site to candidate function indices.
  [[nodiscard]] std::vector<std::size_t> resolve_call(
      const Function& caller, const CallSite& call) const;
};

/// Parse every lexed file into `model` (ranks, mutexes, guarded fields,
/// functions with their acquisition/call sites).
void build_model(Model& model);

/// Last component of a dotted/arrow expression ("shard->mu" -> "mu").
std::string last_component(const std::string& expr);

}  // namespace hotc::analyze
