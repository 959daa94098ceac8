// hotc_analyze self-test fixture (analyzer input, never compiled).
// The clean twin of string_local_fail.cpp: the root's path only takes
// references and views of a string, and its per-thread scratch string
// (which keeps its capacity) carries the allow tag.  The twins' by-value
// locals are never reached from the root.
namespace fix {

template <typename Task>
class Lanes {
 public:
  bool post(Task& task);

 private:
  int label(int task);

  std::string name_ = "task";
};

struct Key {
  static int build(const std::string& name, int task);
};

struct Shadow {
  int label(int task) {
    std::string text = "shadow";
    return static_cast<int>(text.size()) + task;
  }
  static int build(const std::string& name, int task) {
    std::string copy = name;
    return static_cast<int>(copy.size()) + task;
  }
};

// hotc-analyze: hot-path-root
template <typename Task>
bool Lanes<Task>::post(Task& task) {
  return label(task) > 0;
}

template <typename Task>
int Lanes<Task>::label(int task) {
  return Key::build(name_, task);
}

int Key::build(const std::string& name, int task) {
  std::string const& alias = name;
  std::string_view view = alias;
  // hot-path-alloc: allow(per-thread scratch; clear() keeps its capacity)
  thread_local std::string scratch;
  scratch.clear();
  scratch += view;
  return static_cast<int>(scratch.size()) + task;
}

}  // namespace fix
