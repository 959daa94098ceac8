#include "spec/compat.hpp"

#include <algorithm>
#include <charconv>

#include "spec/dockerfile.hpp"
#include "spec/network_mode.hpp"
#include "spec/runtime_key.hpp"

namespace hotc::spec {

CompatClass CompatClass::from_id(KeyId id) {
  return CompatClass(id, KeyInterner::global().hash(id));
}

CompatClass CompatClass::from_spec(const RunSpec& spec) {
  // Same canonical-text discipline as RuntimeKey::from_spec, restricted to
  // the sandbox-shaping fields.  The tag is deliberately absent (it is a
  // costed delta); the category is redundant given the name but kept in
  // the text so the never-across-categories guarantee is visible in dumps.
  // Built in a thread-local scratch string and interned: steady state is
  // allocation-free, and the "cls|" prefix keeps class texts disjoint
  // from runtime-key texts inside the shared interner.
  // hot-path-alloc: allow(per-thread scratch; clear() keeps its capacity)
  thread_local std::string text;
  text.clear();
  text += "cls|img=";
  text += spec.image.name;
  text += "|cat=";
  text += to_string(classify_base_image(spec.image.name));
  text += "|net=";
  text += to_string(spec.network);
  text += "|uts=";
  text += to_string(spec.uts);
  text += "|ipc=";
  text += to_string(spec.ipc);
  text += "|pid=";
  text += to_string(spec.pid);
  text += "|ro=";
  text += spec.read_only_rootfs ? '1' : '0';
  text += "|priv=";
  text += spec.privileged ? '1' : '0';
  text += "|vols=";
  char digits[24];
  text.append(digits,
              std::to_chars(digits, digits + sizeof(digits),
                            spec.volumes.size()).ptr);
  const std::uint64_t hash = fnv1a(text);
  return CompatClass(KeyInterner::global().intern(text, hash), hash);
}

bool compatible(const RunSpec& a, const RunSpec& b) {
  return CompatClass::from_spec(a) == CompatClass::from_spec(b);
}

CompatDelta compat_delta(const RunSpec& donor, const RunSpec& request) {
  CompatDelta delta;

  // Env delta: vars to overwrite or set, plus vars to unset.  Both maps
  // are sorted, but a plain two-pass count keeps this obviously correct.
  for (const auto& [k, v] : request.env) {
    const auto it = donor.env.find(k);
    if (it == donor.env.end() || it->second != v) ++delta.env_changes;
  }
  for (const auto& [k, v] : donor.env) {
    (void)v;
    if (request.env.find(k) == request.env.end()) ++delta.env_changes;
  }

  // Volume delta: host-path remounts.  Topology (count) is part of the
  // class, so compare position-wise over the sorted lists.
  const std::size_t vols =
      std::min(donor.volumes.size(), request.volumes.size());
  for (std::size_t i = 0; i < vols; ++i) {
    if (donor.volumes[i] != request.volumes[i]) ++delta.volume_changes;
  }
  delta.volume_changes +=
      donor.volumes.size() > request.volumes.size()
          ? donor.volumes.size() - request.volumes.size()
          : request.volumes.size() - donor.volumes.size();

  delta.tag_differs = donor.image.tag != request.image.tag;
  delta.limits_differ = donor.memory_limit != request.memory_limit ||
                        donor.cpu_limit != request.cpu_limit;
  delta.command_differs =
      donor.command != request.command ||
      donor.entrypoint_override != request.entrypoint_override;
  return delta;
}

}  // namespace hotc::spec
