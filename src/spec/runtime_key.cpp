#include "spec/runtime_key.hpp"

#include <charconv>

namespace hotc::spec {

/// The historical `ostream << double` default formatting (%g, precision
/// 6) whenever its text reads back as the same double, so canonical texts
/// stay byte-identical to the pre-interner layout; otherwise %.17g, so
/// values that differ past six significant digits get distinct keys.
/// to_chars' `general` format is printf's %g, byte for byte, without the
/// locale and varargs machinery of snprintf.
void append_key_double(std::string& out, double v) {
  char buf[32];
  char* end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 6)
          .ptr;
  double back = 0.0;
  std::from_chars(buf, end, back);
  if (back != v) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                        17)
              .ptr;
  }
  out.append(buf, end);
}

namespace {

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
  append_key_double(out, spec.cpu_limit);
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
