#include "spec/runtime_key.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace hotc::spec {

namespace {

/// The historical `ostream << double` default formatting (%g, precision
/// 6) whenever its text reads back as the same double, so canonical texts
/// stay byte-identical to the pre-interner layout; otherwise %.17g, so
/// values that differ past six significant digits get distinct keys.
void append_double(std::string& out, double v) {
  char buf[32];
  int n = std::snprintf(buf, sizeof(buf), "%g", v);
  if (std::strtod(buf, nullptr) != v) {
    n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out.append(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
}

/// The fields every key variant shares, in the historical order.
void append_runtime_fields(std::string& out, const RunSpec& spec) {
  out += "img=";
  out += spec.image.name;
  out += ':';
  out += spec.image.tag;
  out += "|net=";
  out += to_string(spec.network);
  out += "|uts=";
  out += to_string(spec.uts);
  out += "|ipc=";
  out += to_string(spec.ipc);
  out += "|pid=";
  out += to_string(spec.pid);
  out += "|mem=";
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof(digits),
                                   spec.memory_limit).ptr);
  out += "|cpu=";
  append_double(out, spec.cpu_limit);
  out += "|ro=";
  out += spec.read_only_rootfs ? '1' : '0';
  out += "|priv=";
  out += spec.privileged ? '1' : '0';
}

RuntimeKey intern_view(std::string_view text) {
  const std::uint64_t hash = fnv1a(text);
  const KeyId id = KeyInterner::global().intern(text, hash);
  return RuntimeKey::from_id(id);
  // from_id re-reads the hash; cheap, and keeps the private ctor private.
}

}  // namespace

RuntimeKey RuntimeKey::from_id(KeyId id) {
  return RuntimeKey(id, KeyInterner::global().hash(id));
}

RuntimeKey RuntimeKey::from_spec(const RunSpec& spec) {
  // hot-path-alloc: allow(per-thread scratch; clear() keeps its capacity)
  thread_local std::string text;
  text.clear();
  append_runtime_fields(text, spec);
  text += "|env=";
  for (const auto& [k, v] : spec.env) {
    text += k;
    text += '=';
    text += v;
    text += ';';
  }
  text += "|vol=";
  for (const auto& v : spec.volumes) {
    text += v;
    text += ';';
  }
  return intern_view(text);
}

RuntimeKey RuntimeKey::subset_from_spec(const RunSpec& spec) {
  // hot-path-alloc: allow(per-thread scratch; clear() keeps its capacity)
  thread_local std::string text;
  text.clear();
  append_runtime_fields(text, spec);
  return intern_view(text);
}

}  // namespace hotc::spec
