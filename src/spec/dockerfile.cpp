#include "spec/dockerfile.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <sstream>
#include <string_view>

namespace hotc::spec {
namespace {

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

}  // namespace

[[nodiscard]] Result<InstructionKind> parse_instruction_kind(std::string_view word) {
  const std::string w = to_upper(word);
  if (w == "FROM") return InstructionKind::kFrom;
  if (w == "RUN") return InstructionKind::kRun;
  if (w == "CMD") return InstructionKind::kCmd;
  if (w == "ENTRYPOINT") return InstructionKind::kEntrypoint;
  if (w == "ENV") return InstructionKind::kEnv;
  if (w == "EXPOSE") return InstructionKind::kExpose;
  if (w == "VOLUME") return InstructionKind::kVolume;
  if (w == "WORKDIR") return InstructionKind::kWorkdir;
  if (w == "COPY") return InstructionKind::kCopy;
  if (w == "ADD") return InstructionKind::kAdd;
  if (w == "LABEL") return InstructionKind::kLabel;
  if (w == "ARG") return InstructionKind::kArg;
  if (w == "USER") return InstructionKind::kUser;
  if (w == "HEALTHCHECK") return InstructionKind::kHealthcheck;
  if (w == "SHELL") return InstructionKind::kShell;
  if (w == "STOPSIGNAL") return InstructionKind::kStopsignal;
  if (w == "ONBUILD") return InstructionKind::kOnbuild;
  if (w == "MAINTAINER") return InstructionKind::kMaintainer;
  return make_error<InstructionKind>("dockerfile.unknown_instruction",
                                     "unknown instruction: " + std::string(word));
}

const char* to_string(InstructionKind kind) {
  switch (kind) {
    case InstructionKind::kFrom: return "FROM";
    case InstructionKind::kRun: return "RUN";
    case InstructionKind::kCmd: return "CMD";
    case InstructionKind::kEntrypoint: return "ENTRYPOINT";
    case InstructionKind::kEnv: return "ENV";
    case InstructionKind::kExpose: return "EXPOSE";
    case InstructionKind::kVolume: return "VOLUME";
    case InstructionKind::kWorkdir: return "WORKDIR";
    case InstructionKind::kCopy: return "COPY";
    case InstructionKind::kAdd: return "ADD";
    case InstructionKind::kLabel: return "LABEL";
    case InstructionKind::kArg: return "ARG";
    case InstructionKind::kUser: return "USER";
    case InstructionKind::kHealthcheck: return "HEALTHCHECK";
    case InstructionKind::kShell: return "SHELL";
    case InstructionKind::kStopsignal: return "STOPSIGNAL";
    case InstructionKind::kOnbuild: return "ONBUILD";
    case InstructionKind::kMaintainer: return "MAINTAINER";
  }
  return "?";
}

[[nodiscard]] Result<ImageRef> parse_image_ref(std::string_view text) {
  const std::string s = trim(text);
  if (s.empty()) {
    return make_error<ImageRef>("image.empty", "empty image reference");
  }
  ImageRef ref;
  // The tag separator is the last ':' after the last '/' (so that registry
  // ports like host:5000/img are not misparsed).
  const std::size_t slash = s.rfind('/');
  const std::size_t colon = s.rfind(':');
  if (colon != std::string::npos &&
      (slash == std::string::npos || colon > slash)) {
    ref.name = s.substr(0, colon);
    ref.tag = s.substr(colon + 1);
    if (ref.tag.empty()) {
      return make_error<ImageRef>("image.empty_tag",
                                  "trailing ':' with no tag in " + s);
    }
  } else {
    ref.name = s;
  }
  if (ref.name.empty()) {
    return make_error<ImageRef>("image.empty_name",
                                "no image name in " + s);
  }
  return ref;
}

const char* to_string(BaseImageCategory category) {
  switch (category) {
    case BaseImageCategory::kOs: return "os";
    case BaseImageCategory::kLanguage: return "language";
    case BaseImageCategory::kApplication: return "application";
    case BaseImageCategory::kOther: return "other";
  }
  return "?";
}

BaseImageCategory classify_base_image(const std::string& image_name) {
  // Strip any registry/namespace prefix: "library/python" -> "python".
  // A view, not a copy: a function handle's first class query runs this
  // on the request path.
  std::string_view base = image_name;
  const std::size_t slash = base.rfind('/');
  if (slash != std::string_view::npos) base.remove_prefix(slash + 1);

  static constexpr std::array<const char*, 9> kOs = {
      "ubuntu", "alpine", "debian", "centos", "busybox",
      "fedora", "amazonlinux", "opensuse", "scratch"};
  static constexpr std::array<const char*, 12> kLang = {
      "python", "node", "golang", "openjdk", "java", "ruby",
      "php",    "dotnet", "rust",  "erlang",  "perl", "gcc"};
  static constexpr std::array<const char*, 12> kApp = {
      "nginx", "redis",    "mysql",         "postgres", "httpd", "mongo",
      "kafka", "rabbitmq", "elasticsearch", "memcached", "cassandra", "tomcat"};

  auto matches = [base](std::string_view name) {
    return base.starts_with(name) &&
           (base.size() == name.size() || base[name.size()] == '-');
  };
  for (const char* name : kOs) {
    if (matches(name)) return BaseImageCategory::kOs;
  }
  for (const char* name : kLang) {
    if (matches(name)) return BaseImageCategory::kLanguage;
  }
  for (const char* name : kApp) {
    if (matches(name)) return BaseImageCategory::kApplication;
  }
  return BaseImageCategory::kOther;
}

Result<Dockerfile> Dockerfile::parse(std::string_view text) {
  Dockerfile df;
  std::istringstream in{std::string(text)};
  std::string raw;
  std::string logical;
  int line_no = 0;

  auto flush_logical = [&]() -> Result<bool> {
    const std::string line = trim(logical);
    logical.clear();
    if (line.empty() || line[0] == '#') return true;
    const std::size_t space = line.find_first_of(" \t");
    const std::string keyword =
        space == std::string::npos ? line : line.substr(0, space);
    auto kind = parse_instruction_kind(keyword);
    if (!kind.ok()) {
      return Result<bool>(Error{kind.error().code,
                                kind.error().message + " (line " +
                                    std::to_string(line_no) + ")"});
    }
    const std::string args =
        space == std::string::npos ? "" : trim(line.substr(space + 1));
    if (kind.value() == InstructionKind::kFrom) {
      // "FROM image [AS stage]"
      std::string image_part = args;
      const std::string upper = to_upper(args);
      const std::size_t as_pos = upper.rfind(" AS ");
      if (as_pos != std::string::npos) image_part = args.substr(0, as_pos);
      // Drop --platform=... flags.
      while (image_part.rfind("--", 0) == 0) {
        const std::size_t sp = image_part.find_first_of(" \t");
        if (sp == std::string::npos) break;
        image_part = trim(image_part.substr(sp + 1));
      }
      auto ref = parse_image_ref(image_part);
      if (!ref.ok()) {
        return Result<bool>(Error{ref.error().code, ref.error().message});
      }
      df.base_image_ = ref.value();
      ++df.stage_count_;
    }
    df.instructions_.push_back(Instruction{kind.value(), args});
    return true;
  };

  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    // Continuation: trailing backslash joins with the next line.
    const std::string t = trim(line);
    if (!t.empty() && t.back() == '\\' && t[0] != '#') {
      logical += t.substr(0, t.size() - 1) + " ";
      continue;
    }
    logical += line;
    auto r = flush_logical();
    if (!r.ok()) return Result<Dockerfile>(r.error());
  }
  if (!trim(logical).empty()) {
    auto r = flush_logical();
    if (!r.ok()) return Result<Dockerfile>(r.error());
  }
  if (df.stage_count_ == 0) {
    return make_error<Dockerfile>("dockerfile.no_from",
                                  "Dockerfile has no FROM instruction");
  }
  return df;
}

std::vector<std::pair<std::string, std::string>> Dockerfile::env() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& ins : instructions_) {
    if (ins.kind != InstructionKind::kEnv) continue;
    // Support both "ENV k=v k2=v2" and the legacy "ENV k v" form.
    if (ins.args.find('=') != std::string::npos) {
      std::istringstream ss(ins.args);
      std::string tok;
      while (ss >> tok) {
        const std::size_t eq = tok.find('=');
        if (eq != std::string::npos) {
          out.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
        }
      }
    } else {
      const std::size_t sp = ins.args.find_first_of(" \t");
      if (sp != std::string::npos) {
        out.emplace_back(trim(ins.args.substr(0, sp)),
                         trim(ins.args.substr(sp + 1)));
      }
    }
  }
  return out;
}

std::vector<std::string> Dockerfile::volumes() const {
  std::vector<std::string> out;
  for (const auto& ins : instructions_) {
    if (ins.kind != InstructionKind::kVolume) continue;
    std::istringstream ss(ins.args);
    std::string tok;
    while (ss >> tok) {
      // Strip JSON-array syntax: ["/data"].
      std::erase_if(tok, [](char c) {
        return c == '[' || c == ']' || c == '"' || c == ',';
      });
      if (!tok.empty()) out.push_back(tok);
    }
  }
  return out;
}

std::vector<int> Dockerfile::exposed_ports() const {
  std::vector<int> out;
  for (const auto& ins : instructions_) {
    if (ins.kind != InstructionKind::kExpose) continue;
    std::istringstream ss(ins.args);
    std::string tok;
    while (ss >> tok) {
      // "8080" or "8080/tcp".
      const std::size_t slash = tok.find('/');
      const std::string num = slash == std::string::npos
                                  ? tok
                                  : tok.substr(0, slash);
      try {
        out.push_back(std::stoi(num));
      } catch (...) {
        // Malformed port: skip rather than fail the whole file.
      }
    }
  }
  return out;
}

}  // namespace hotc::spec
