// hotc_analyze self-test fixture (analyzer input, never compiled).
// Seeded violation for the hot-path-alloc rule: a by-value std::string
// local, reached from an out-of-line class-template member marked as a
// root, through a member call and a qualified static call.  Both callee
// names have a twin in another class, so only the right class resolves.
namespace fix {

template <typename Task>
class Lanes {
 public:
  bool post(Task& task);

 private:
  int label(int task);
};

struct Key {
  static int build(int task);
};

struct Shadow {
  int label(int task) { return task; }
  static int build(int task) { return task; }
};

// hotc-analyze: hot-path-root
template <typename Task>
bool Lanes<Task>::post(Task& task) {
  return label(task) > 0;
}

template <typename Task>
int Lanes<Task>::label(int task) {
  return Key::build(task);
}

int Key::build(int task) {
  std::string text = "task";  // by-value local: may allocate
  return static_cast<int>(text.size()) + task;
}

}  // namespace fix
