// serve-mix: a fresh rbda_serve --jobs=2 on an ephemeral port, driven by
// an open-loop, seeded schedule over two connections (one thread each).
// Requests mix warm decides (repeated keys: the daemon's decision cache),
// cold decides (each a containment problem not yet seen in the run) and
// `run` ops (plan execution over a document's facts). Every request is
// timed from the moment it was due.
#include <errno.h>
#include <sched.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "chase/relevance.h"
#include "core/plan_synthesis.h"
#include "core/proof_plans.h"
#include "obs/json_reader.h"
#include "parser/parser.h"
#include "runtime/access_selection.h"
#include "runtime/executor.h"
#include "serve/client.h"
#include "workloads.h"

namespace perfbench {

bool ServeVerdictMismatch(const std::string& verdict, bool complete,
                          const rbda::Decision& reference) {
  return verdict != rbda::AnswerabilityName(reference.verdict) ||
         complete != reference.complete;
}

uint64_t ColdMissShortfall(uint64_t cold_sent, uint64_t containment_misses,
                           uint64_t serve_misses) {
  auto off = [cold_sent](uint64_t misses) {
    return misses > cold_sent ? misses - cold_sent : cold_sent - misses;
  };
  return std::max(off(containment_misses), off(serve_misses));
}

namespace {

// Offered load at the load point (requests per second), and the burst:
// kBurstWarm warm decides, kBurstCold cold decides, the rest run ops.
// Bursts, rather than single arrivals, let the daemon's threads wake once
// per burst.
constexpr double kLoadRate = 500;
constexpr int kBurst = 5;
constexpr int kBurstWarm = 3;
constexpr int kBurstCold = 1;
// The ladder: multiples of the load point, each step kStepSeconds long.
constexpr double kLadder[] = {1, 2, 3, 4, 6};
constexpr double kStepSeconds = 2;
// A ladder step meets the limit when its p99 is at most this.
constexpr double kLatencyLimitUs = 20000;
// A phase is valid while its generator runs at most this late (p99): a
// generator further behind than the latency limit no longer offers the
// scheduled load.
constexpr double kLatenessBoundUs = kLatencyLimitUs;
constexpr int kConnections = 2;
// Latency quantiles are taken per window of this length, 1500 requests at
// the load point, so that each window's p99 has 15 samples beyond it.
constexpr double kWindowUs = 3e6;

enum Kind { kWarm = 0, kCold = 1, kRun = 2 };
constexpr const char* kKindNames[] = {"warm", "cold", "run"};

// ---- Documents (seeded) ----

struct Doc {
  std::string name;
  std::string text;
};

constexpr int kColdRelations = 10;

// Relations C0..C9 with acyclic IDs Ci(x, y) -> Cj(y, z), i < j, drawn
// from `rng`; some relations also have a bounded listing method. Cold
// decides pose queries over them (see ColdQueries).
std::string ColdDoc(rbda::Rng* rng) {
  std::string text;
  for (int i = 0; i < kColdRelations; ++i) {
    text += "relation C" + std::to_string(i) + "(a, b)\n";
  }
  for (int i = 0; i < kColdRelations; ++i) {
    std::string rel = "C";
    rel += std::to_string(i);
    if (rng->Below(3) == 0) {
      text += "method l" + rel + " on " + rel + " inputs() limit " +
              std::to_string(1 + rng->Below(5)) + "\n";
    }
    text += "method k" + rel + " on " + rel + " inputs(0)\n";
  }
  for (int i = 0; i + 1 < kColdRelations; ++i) {
    for (int j = i + 1; j < kColdRelations; ++j) {
      if (rng->Below(5) == 0) {
        text += "tgd C" + std::to_string(i) + "(x, y) -> C" +
                std::to_string(j) + "(y, z)\n";
      }
    }
  }
  return text;
}

std::string ChainDoc() {
  std::string text;
  for (int i = 0; i < 6; ++i) {
    text += "relation R" + std::to_string(i) + "(a, b)\n";
  }
  text += "method m0 on R0 inputs() limit 3\n";
  for (int i = 1; i < 6; ++i) {
    text += "method m" + std::to_string(i) + " on R" + std::to_string(i) +
            " inputs(0)\n";
  }
  for (int i = 0; i + 1 < 6; ++i) {
    text += "tgd R" + std::to_string(i) + "(x, y) -> R" +
            std::to_string(i + 1) + "(y, z)\n";
  }
  text += "query Qhead() :- R0(x, y)\nquery Qtail() :- R5(x, y)\n";
  return text;
}

std::string UniversityDoc() {
  return "relation Prof(id, name, salary)\n"
         "relation Udirectory(id, address, phone)\n"
         "method pr on Prof inputs(0)\n"
         "method ud on Udirectory inputs() limit 10\n"
         "tgd Prof(i, n, s) -> Udirectory(i, a, p)\n"
         "query Q1() :- Prof(i, n, \"10000\")\n"
         "query Q2() :- Udirectory(i, a, p)\n";
}

// A directory listing plus keyed lookups, with seeded facts: the run op
// executes QJ's plan over them.
std::string RunDoc(rbda::Rng* rng, int people) {
  std::string text =
      "relation Prof(id, name, salary)\n"
      "relation Udir(id, address, phone)\n"
      "method pr on Prof inputs()\n"
      "method ud on Udir inputs(0)\n"
      "tgd Prof(i, n, s) -> Udir(i, a, p)\n"
      "query QJ(n, a) :- Prof(i, n, s) & Udir(i, a, p)\n";
  for (int p = 0; p < people; ++p) {
    std::string id = "\"p" + std::to_string(p) + "\"";
    text += "fact Prof(" + id + ", \"n" + std::to_string(rng->Below(1000)) +
            "\", \"" + std::to_string(1000 * (1 + rng->Below(9))) + "\")\n";
    int entries = 1 + static_cast<int>(rng->Below(2));
    for (int e = 0; e < entries; ++e) {
      text += "fact Udir(" + id + ", \"a" + std::to_string(rng->Below(500)) +
              "\", \"t" + std::to_string(rng->Below(500)) + "\")\n";
    }
  }
  return text;
}

struct Key {
  int doc;  // index into the document list
  std::string query;
};

struct Setup {
  std::vector<Doc> docs;
  std::vector<Key> warm;  // named decides
  std::vector<Key> runs;  // named run ops
  int cold_doc = 0;
};

Setup MakeSetup(uint64_t seed) {
  rbda::Rng rng(seed * 0x2545f4914f6cdd1dULL + 5);
  Setup s;
  // The cold document is the same for every seed (its IDs set the cost of
  // every cold decide); the seed varies the queries posed against it.
  rbda::Rng cold_doc_rng(20180610);
  s.docs.push_back({"cold", ColdDoc(&cold_doc_rng)});
  s.docs.push_back({"chain", ChainDoc()});
  s.docs.push_back({"univ", UniversityDoc()});
  s.docs.push_back({"run0", RunDoc(&rng, 20)});
  s.docs.push_back({"run1", RunDoc(&rng, 40)});
  s.cold_doc = 0;
  s.warm = {{1, "Qhead"}, {1, "Qtail"}, {2, "Q1"},
            {2, "Q2"},    {3, "QJ"},    {4, "QJ"}};
  s.runs = {{3, "QJ"}, {4, "QJ"}};
  return s;
}

// Cold queries: random connected CQs over C0..C9 with 4 to 6 variables.
// The containment cache key is canonical up to renaming of variables,
// constants and (through the linearization's fresh relations) relations,
// so two queries pose the same problem when one is the other renamed.
// Each new query is therefore kept only when its canonical form — the
// least encoding over all variable orders, relations renamed by first
// appearance — has not been drawn before in the run.
class ColdQueries {
 public:
  explicit ColdQueries(uint64_t seed)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + 3) {}

  std::string Next() {
    while (true) {
      int vars = 4 + static_cast<int>(rng_.Below(3));
      std::vector<Atom> atoms;
      std::set<std::pair<int, int>> pairs;
      auto add = [&](int a, int b) {
        if (a == b || !pairs.insert({a, b}).second ||
            pairs.count({b, a}) > 0) {
          return;
        }
        atoms.push_back({static_cast<int>(rng_.Below(kColdRelations)), a, b});
      };
      // A random spanning tree keeps the query connected; then extra edges.
      for (int v = 1; v < vars; ++v) {
        int u = static_cast<int>(rng_.Below(v));
        if (rng_.Below(2) == 0) {
          add(u, v);
        } else {
          add(v, u);
        }
      }
      for (int extra = static_cast<int>(rng_.Below(3)); extra > 0; --extra) {
        add(static_cast<int>(rng_.Below(vars)),
            static_cast<int>(rng_.Below(vars)));
      }
      if (!seen_.insert(Canonical(atoms, vars)).second) continue;
      std::string q = "Q() :- ";
      for (size_t i = 0; i < atoms.size(); ++i) {
        if (i > 0) q += " & ";
        q += "C";
        q += std::to_string(atoms[i].rel) + "(x" + std::to_string(atoms[i].a) +
             ", x" + std::to_string(atoms[i].b) + ")";
      }
      return q;
    }
  }

 private:
  struct Atom {
    int rel, a, b;
  };

  static std::vector<int> Canonical(const std::vector<Atom>& atoms, int vars) {
    std::vector<int> perm(vars);
    for (int i = 0; i < vars; ++i) perm[i] = i;
    std::vector<int> best;
    do {
      // No two atoms share a variable pair, so sorting by the renamed
      // pair orders the atoms totally.
      std::vector<std::array<int, 3>> renamed;
      for (const Atom& at : atoms) {
        renamed.push_back({perm[at.a], perm[at.b], at.rel});
      }
      std::sort(renamed.begin(), renamed.end());
      std::map<int, int> rel_names;
      std::vector<int> code;
      for (const auto& r : renamed) {
        auto it = rel_names.emplace(r[2], static_cast<int>(rel_names.size()));
        code.insert(code.end(), {r[0], r[1], it.first->second});
      }
      if (best.empty() || code < best) best = code;
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
  }

  rbda::Rng rng_;
  std::set<std::vector<int>> seen_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---- CPU placement ----

// Confines the calling thread (and what it later forks or spawns) to `cpu`.
void PinTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

// The client and the daemon each get a CPU of their own: the last two the
// process may use (one CPU serves both when only one is allowed). Sharing
// one CPU, the client's threads waited behind the daemon's workers and the
// generator ran 3-4 ms late (p99).
struct Placement {
  int client_cpu = -1;
  int daemon_cpu = -1;
};

Placement ChooseCpus() {
  Placement p;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return p;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (p.client_cpu < 0) {
      p.client_cpu = cpu;
    } else {
      p.daemon_cpu = cpu;
      break;
    }
  }
  if (p.daemon_cpu < 0) p.daemon_cpu = p.client_cpu;
  return p;
}

// Keeps a CPU from going idle. On a virtual machine an idle virtual CPU is
// handed back to the host, and waking it again for the next request or
// response takes a variable time of up to milliseconds: that wait, not
// the program, then sets the latency. The keeper spins at SCHED_IDLE
// priority, so any other thread that wakes on the CPU takes it at once.
class IdleKeeper {
 public:
  explicit IdleKeeper(int cpu) {
    if (cpu < 0) return;
    thread_ = std::thread([this, cpu] {
      PinTo(cpu);
      sched_param param{};
      // At normal priority the keeper would take CPU time from the threads
      // it is meant to serve, so it stops when SCHED_IDLE is refused.
      if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
  ~IdleKeeper() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  IdleKeeper(const IdleKeeper&) = delete;
  IdleKeeper& operator=(const IdleKeeper&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- The daemon ----

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Starts the daemon confined to `cpu` (any CPU when negative).
  bool Start(const std::string& binary, int cpu) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      if (cpu >= 0) PinTo(cpu);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(binary.c_str(), binary.c_str(), "--port=0", "--jobs=2",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    out_ = fds[0];
    std::string line;
    while (ReadStdoutLine(&line, 10000)) {
      if (line.rfind("LISTENING port=", 0) == 0) {
        port_ = static_cast<uint16_t>(std::stoi(line.substr(15)));
        return true;
      }
    }
    return false;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      std::string line;
      while (ReadStdoutLine(&line, 10000)) {
      }
      int status = 0;
      for (int i = 0; i < 10000; ++i) {
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          break;
        }
        usleep(1000);
      }
      if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
      }
    }
    if (out_ >= 0) {
      close(out_);
      out_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  // Reads one line of the daemon's stdout; false on EOF or timeout.
  bool ReadStdoutLine(std::string* line, int timeout_ms) {
    while (true) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd p = {out_, POLLIN, 0};
      if (poll(&p, 1, timeout_ms) <= 0) return false;
      char chunk[4096];
      ssize_t n = read(out_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int out_ = -1;
  uint16_t port_ = 0;
  std::string buf_;
};

// One client connection with its own line reader.
class Conn {
 public:
  static std::unique_ptr<Conn> Open(uint16_t port) {
    rbda::StatusOr<std::unique_ptr<rbda::ServeClient>> c =
        rbda::ServeClient::Connect("127.0.0.1", port, 10000);
    if (!c.ok()) return nullptr;
    auto conn = std::make_unique<Conn>();
    conn->client_ = std::move(c).value();
    return conn;
  }

  bool Send(const std::string& line) { return client_->Send(line).ok(); }

  // Appends complete lines already received to `lines`; waits at most
  // `timeout_us` for data. False when the connection is gone.
  bool Receive(double timeout_us, std::vector<std::string>* lines) {
    pollfd p = {client_->fd(), POLLIN, 0};
    timespec ts;
    timeout_us = std::max(0.0, timeout_us);
    ts.tv_sec = static_cast<time_t>(timeout_us / 1e6);
    ts.tv_nsec = static_cast<long>(std::fmod(timeout_us, 1e6) * 1000);
    int ready = ppoll(&p, 1, &ts, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;
    char chunk[65536];
    ssize_t n = recv(client_->fd(), chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = buf_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines->push_back(buf_.substr(start, nl - start));
    }
    buf_.erase(0, start);
    return true;
  }

  // Send and wait for the one response (no other request in flight).
  bool Call(const std::string& line, std::string* response) {
    if (!Send(line)) return false;
    std::vector<std::string> lines;
    double deadline = NowUs() + 30e6;
    while (lines.empty() && NowUs() < deadline) {
      if (!Receive(deadline - NowUs(), &lines)) return false;
    }
    if (lines.empty()) return false;
    *response = lines.front();
    return true;
  }

 private:
  std::unique_ptr<rbda::ServeClient> client_;
  std::string buf_;
};

bool ResponseOk(const std::string& response) {
  rbda::StatusOr<rbda::JsonValue> v = rbda::ParseJson(response);
  if (!v.ok()) return false;
  rbda::StatusOr<bool> ok = v->GetBool("ok", false);
  return ok.ok() && *ok;
}

bool ReadDaemonRegistry(Conn* conn, RegistryReading* out) {
  std::string response;
  return conn->Call("{\"op\":\"metrics\"}", &response) &&
         ParseRegistryJson(response, out);
}

// ---- Requests and phases ----

struct Req {
  Kind kind = kWarm;
  int doc = 0;
  std::string query;  // named query, or the text of a cold query
  std::string line;
  double due_us = 0;
  double sent_us = 0;
  double done_us = 0;
  bool answered = false;
  bool ok = false;
  std::string error;
  std::string verdict;
  bool complete = false;
  uint64_t tuples = 0;
};

std::string RequestLine(const Setup& s, const Req& r, size_t id) {
  std::string head = "{\"id\":\"" + std::to_string(id) + "\",\"schema\":\"" +
                     s.docs[r.doc].name + "\",";
  switch (r.kind) {
    case kWarm:
      return head + "\"op\":\"decide\",\"query\":\"" + r.query + "\"}";
    case kCold:
      return head + "\"op\":\"decide\",\"query_text\":" + JsonString(r.query) +
             "}";
    case kRun:
      return head + "\"op\":\"run\",\"query\":\"" + r.query + "\"}";
  }
  return "";
}

void ParseResponse(const rbda::JsonValue& v, Req* r) {
  rbda::StatusOr<bool> ok = v.GetBool("ok", false);
  r->ok = ok.ok() && *ok;
  if (!r->ok) {
    rbda::StatusOr<std::string> e = v.GetString("error", "unknown");
    r->error = e.ok() ? *e : "unknown";
    return;
  }
  if (const rbda::JsonValue* d = v.Find("decision")) {
    rbda::StatusOr<std::string> verdict = d->GetString("verdict", "");
    rbda::StatusOr<bool> complete = d->GetBool("complete", false);
    r->verdict = verdict.ok() ? *verdict : "";
    r->complete = complete.ok() && *complete;
  } else if (const rbda::JsonValue* run = v.Find("run")) {
    rbda::StatusOr<uint64_t> tuples = run->GetUint("tuples", 0);
    r->tuples = tuples.ok() ? *tuples : 0;
  }
}

struct Phase {
  std::vector<Req> reqs;
  double start_us = 0;
  double queue_depth_max = 0;
  std::vector<double> lateness_us;
};

// A seeded open-loop schedule: rate * seconds / kBurst bursts of kBurst
// requests, at seeded uniform times over the phase (a Poisson process
// conditioned on its count). Every burst holds the mix exactly, in a seeded
// order, so the work offered per burst does not vary and the daemon wakes
// once per burst rather than once per request.
void Schedule(const Setup& s, double rate, double seconds, rbda::Rng* rng,
              ColdQueries* cold, Phase* phase) {
  size_t bursts = static_cast<size_t>(rate * seconds / kBurst);
  std::vector<double> due;
  for (size_t b = 0; b < bursts; ++b) {
    due.push_back(rng->Below(1ull << 40) * (seconds * 1e6 / (1ull << 40)));
  }
  std::sort(due.begin(), due.end());
  for (double t : due) {
    Kind kinds[kBurst];
    for (int i = 0; i < kBurst; ++i) {
      kinds[i] = i < kBurstWarm ? kWarm : i < kBurstWarm + kBurstCold ? kCold
                                                                       : kRun;
    }
    for (int i = kBurst - 1; i > 0; --i) {
      std::swap(kinds[i], kinds[rng->Below(i + 1)]);
    }
    for (Kind kind : kinds) {
      Req r;
      r.due_us = t;
      r.kind = kind;
      if (kind == kCold) {
        r.doc = s.cold_doc;
        r.query = cold->Next();
      } else {
        const std::vector<Key>& keys = kind == kWarm ? s.warm : s.runs;
        const Key& k = keys[rng->Below(keys.size())];
        r.doc = k.doc;
        r.query = k.query;
      }
      phase->reqs.push_back(std::move(r));
    }
  }
  for (size_t i = 0; i < phase->reqs.size(); ++i) {
    phase->reqs[i].line = RequestLine(s, phase->reqs[i], i);
  }
}

// Drives connection `c` through its share of the phase (every
// kConnections-th request). Connection 0 also samples the daemon's queue
// depth through the health op when `sample_queue` is set.
void Drive(Conn* conn, int c, Phase* phase, bool sample_queue,
           std::vector<double>* lateness, double* queue_max) {
  std::vector<Req*> mine;
  for (size_t i = c; i < phase->reqs.size(); i += kConnections) {
    mine.push_back(&phase->reqs[i]);
  }
  std::map<std::string, Req*> outstanding;
  size_t next = 0;
  double last_progress = NowUs();
  double next_health = phase->start_us;
  bool health_pending = false;
  std::vector<std::string> lines;
  while (next < mine.size() || !outstanding.empty()) {
    double now = NowUs();
    while (next < mine.size() && phase->start_us + mine[next]->due_us <= now) {
      Req* r = mine[next++];
      ScopedSpan span("send");
      r->sent_us = NowUs();
      lateness->push_back(r->sent_us - (phase->start_us + r->due_us));
      if (!conn->Send(r->line)) return;
      outstanding[std::to_string(r - phase->reqs.data())] = r;
      last_progress = now = NowUs();
    }
    if (sample_queue && !health_pending && now >= next_health &&
        next < mine.size()) {
      if (!conn->Send("{\"op\":\"health\",\"id\":\"h\"}")) return;
      health_pending = true;
      next_health = now + 50000;
    }
    if (!outstanding.empty() && now - last_progress > 10e6) break;
    double wait = next < mine.size()
                      ? phase->start_us + mine[next]->due_us - now
                      : 100000;
    lines.clear();
    if (!conn->Receive(wait, &lines)) return;
    double done = NowUs();
    for (const std::string& line : lines) {
      ScopedSpan span("receive");
      rbda::StatusOr<rbda::JsonValue> v = rbda::ParseJson(line);
      if (!v.ok()) continue;
      rbda::StatusOr<std::string> id = v->GetString("id", "");
      if (!id.ok()) continue;
      if (*id == "h") {
        health_pending = false;
        if (const rbda::JsonValue* h = v->Find("health")) {
          rbda::StatusOr<uint64_t> depth = h->GetUint("queue_depth", 0);
          if (depth.ok()) {
            *queue_max = std::max(*queue_max, static_cast<double>(*depth));
          }
        }
        continue;
      }
      auto it = outstanding.find(*id);
      if (it == outstanding.end()) continue;
      Req* r = it->second;
      outstanding.erase(it);
      r->answered = true;
      r->done_us = done;
      ParseResponse(*v, r);
      last_progress = done;
    }
  }
}

void RunPhase(const std::vector<std::unique_ptr<Conn>>& conns, Phase* phase,
              bool sample_queue) {
  phase->start_us = NowUs() + 20000;
  std::vector<double> lateness[kConnections];
  double queue_max[kConnections] = {0, 0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(Drive, conns[c].get(), c, phase,
                         sample_queue && c == 0, &lateness[c], &queue_max[c]);
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kConnections; ++c) {
    phase->lateness_us.insert(phase->lateness_us.end(), lateness[c].begin(),
                              lateness[c].end());
    phase->queue_depth_max = std::max(phase->queue_depth_max, queue_max[c]);
  }
}

// What one phase measured.
struct PhaseStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors, sheds, timeouts, unanswered
  uint64_t sheds = 0;
  uint64_t deadline_in_queue = 0;
  uint64_t ok = 0;
  uint64_t decides = 0;
  uint64_t complete_decides = 0;
  uint64_t cold_sent = 0;
  std::vector<double> latency_us;  // from due time, every request
  std::vector<double> by_kind_us[3];
  // Medians over the phase's kWindowUs windows (by due time) of each
  // window's p50 and p99: a stall of the whole machine moves the windows
  // it falls in, not the figures.
  double window_p50_us = 0;
  double window_p99_us = 0;
  double late_p99_us = 0;
  double elapsed_s = 0;
  bool backlog = false;
};

PhaseStats Summarize(const Phase& phase) {
  PhaseStats st;
  double first_due = phase.start_us;
  double last_done = first_due;
  uint64_t unanswered = 0;
  for (const Req& r : phase.reqs) {
    ++st.attempted;
    if (r.kind == kCold) ++st.cold_sent;
    if (r.kind != kRun) ++st.decides;
    if (!r.answered) {
      ++unanswered;
      ++st.failed;
      continue;
    }
    double lat = r.done_us - (phase.start_us + r.due_us);
    st.latency_us.push_back(lat);
    st.by_kind_us[r.kind].push_back(lat);
    last_done = std::max(last_done, r.done_us);
    if (!r.ok) {
      ++st.failed;
      if (r.error == "overloaded" || r.error == "tenant_over_limit") ++st.sheds;
      if (r.error == "deadline_in_queue") ++st.deadline_in_queue;
      continue;
    }
    ++st.ok;
    if (r.kind != kRun && r.complete) ++st.complete_decides;
  }
  std::map<int, std::vector<double>> windows;
  for (const Req& r : phase.reqs) {
    if (r.answered) {
      windows[static_cast<int>(r.due_us / kWindowUs)].push_back(
          r.done_us - (phase.start_us + r.due_us));
    }
  }
  std::vector<double> window_p50, window_p99;
  for (auto& [w, lat] : windows) {
    window_p50.push_back(Quantile(&lat, 0.50));
    window_p99.push_back(Quantile(&lat, 0.99));
  }
  st.window_p50_us = Median(window_p50);
  st.window_p99_us = Median(window_p99);
  std::vector<double> late = phase.lateness_us;
  st.late_p99_us = Quantile(&late, 0.99);
  st.elapsed_s = (last_done - first_due) / 1e6;
  // A backlog that grew: requests still answered more than one latency
  // limit after the schedule ended, or never answered.
  double schedule_end =
      phase.start_us + (phase.reqs.empty() ? 0 : phase.reqs.back().due_us);
  st.backlog = unanswered > 0 || last_done - schedule_end > kLatencyLimitUs;
  return st;
}

// ---- Reference answers, computed in process after the timed window ----

struct Checker {
  const Setup& setup;
  std::map<std::string, rbda::Decision> decisions;  // doc + query
  std::map<std::string, uint64_t> tuples;           // doc + query

  rbda::StatusOr<rbda::Decision> Decide(const Req& r) {
    std::string key = std::to_string(r.doc) + "|" + r.query;
    auto it = decisions.find(key);
    if (it != decisions.end()) return it->second;
    rbda::Universe u;
    rbda::StatusOr<rbda::ParsedDocument> doc =
        rbda::ParseDocument(setup.docs[r.doc].text, &u);
    if (!doc.ok()) return doc.status();
    rbda::ConjunctiveQuery q = rbda::ConjunctiveQuery::Boolean({});
    if (r.kind == kCold) {
      rbda::StatusOr<rbda::ConjunctiveQuery> parsed = rbda::ParseQuery(r.query, &u);
      if (!parsed.ok()) return parsed.status();
      q = std::move(*parsed);
    } else {
      q = doc->queries.at(r.query);
    }
    rbda::DecisionOptions options;
    options.chase.prune_to_goal = rbda::ResolvePrune(-1);
    rbda::StatusOr<rbda::Decision> d =
        rbda::DecideQueryAnswerability(doc->schema, q, options);
    if (d.ok()) decisions.emplace(key, *d);
    return d;
  }

  // Tuple count of a fault-free execution of the run op's plan, as the
  // daemon builds it.
  rbda::StatusOr<uint64_t> Run(const Req& r) {
    std::string key = std::to_string(r.doc) + "|" + r.query;
    auto it = tuples.find(key);
    if (it != tuples.end()) return it->second;
    rbda::Universe u;
    rbda::StatusOr<rbda::ParsedDocument> doc =
        rbda::ParseDocument(setup.docs[r.doc].text, &u);
    if (!doc.ok()) return doc.status();
    const rbda::ConjunctiveQuery& q = doc->queries.at(r.query);
    rbda::StatusOr<rbda::Plan> plan = rbda::ExtractPlanFromProof(doc->schema, q);
    if (!plan.ok()) plan = rbda::SynthesizeUniversalPlan(doc->schema, q);
    if (!plan.ok()) return plan.status();
    auto selector = rbda::MakeIdempotent(
        rbda::MakeSelector(rbda::SelectionPolicy::kFirstK, 1));
    rbda::PlanExecutor executor(doc->schema, doc->data, selector.get());
    rbda::StatusOr<rbda::ExecutionResult> out = executor.Run(*plan);
    if (!out.ok()) return out.status();
    tuples.emplace(key, out->table.size());
    return static_cast<uint64_t>(out->table.size());
  }

  // Returns the mismatching requests of the phase.
  uint64_t Check(const Phase& phase) {
    uint64_t bad = 0;
    for (const Req& r : phase.reqs) {
      if (!r.answered || !r.ok) continue;
      if (r.kind == kRun) {
        rbda::StatusOr<uint64_t> want = Run(r);
        if (!want.ok() || *want != r.tuples) {
          std::fprintf(stderr, "serve-mix: run %s on %s: %llu tuples\n",
                       r.query.c_str(), setup.docs[r.doc].name.c_str(),
                       static_cast<unsigned long long>(r.tuples));
          ++bad;
        }
        continue;
      }
      rbda::StatusOr<rbda::Decision> want = Decide(r);
      if (!want.ok() || ServeVerdictMismatch(r.verdict, r.complete, *want)) {
        std::fprintf(stderr, "serve-mix: decide %s on %s: daemon says %s\n",
                     r.query.c_str(), setup.docs[r.doc].name.c_str(),
                     r.verdict.c_str());
        ++bad;
      }
    }
    return bad;
  }
};

std::string SelfBinaryDir() {
  char path[4096];
  ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (n <= 0) return ".";
  std::string p(path, static_cast<size_t>(n));
  return p.substr(0, p.rfind('/'));
}

bool LoadDocs(Conn* conn, const Setup& s) {
  for (const Doc& d : s.docs) {
    std::string response;
    if (!conn->Call("{\"op\":\"load-schema\",\"name\":\"" + d.name +
                        "\",\"document\":" + JsonString(d.text) + "}",
                    &response) ||
        !ResponseOk(response)) {
      std::fprintf(stderr, "serve-mix: loading %s failed: %s\n",
                   d.name.c_str(), response.c_str());
      return false;
    }
  }
  return true;
}

// Replaces the client connections with fresh ones.
bool Reconnect(uint16_t port, std::vector<std::unique_ptr<Conn>>* conns) {
  conns->clear();
  for (int c = 0; c < kConnections; ++c) {
    std::unique_ptr<Conn> conn = Conn::Open(port);
    if (conn == nullptr) {
      std::fprintf(stderr, "serve-mix: cannot connect\n");
      return false;
    }
    conns->push_back(std::move(conn));
  }
  return true;
}

// Starts a daemon, connects, and loads every document.
bool StartAndLoad(const std::string& binary, int cpu, const Setup& s,
                  Daemon* daemon, std::vector<std::unique_ptr<Conn>>* conns) {
  conns->clear();
  if (!daemon->Start(binary, cpu)) {
    std::fprintf(stderr, "serve-mix: cannot start %s\n", binary.c_str());
    return false;
  }
  return Reconnect(daemon->port(), conns) && LoadDocs((*conns)[0].get(), s);
}

// The load point's phase with the cold-means-cold count check.
struct LoadPoint {
  Phase phase;
  PhaseStats stats;
  uint64_t containment_misses = 0;
  uint64_t serve_misses = 0;
  double serve_hits = 0;
  RegistryReading after;  // the daemon's registry after the phase
  RegistryReading delta;  // and its rise over the phase
};

bool RunLoadPoint(const std::vector<std::unique_ptr<Conn>>& conns,
                  const Setup& s, double seconds, rbda::Rng* rng,
                  ColdQueries* cold, bool sample_queue, LoadPoint* lp) {
  Schedule(s, kLoadRate, seconds, rng, cold, &lp->phase);
  RegistryReading before;
  if (!ReadDaemonRegistry(conns[0].get(), &before)) return false;
  RunPhase(conns, &lp->phase, sample_queue);
  if (!ReadDaemonRegistry(conns[0].get(), &lp->after)) return false;
  lp->delta = Delta(before, lp->after);
  const RegistryReading& d = lp->delta;
  lp->stats = Summarize(lp->phase);
  lp->containment_misses =
      static_cast<uint64_t>(d.Get("containment.cache.misses"));
  lp->serve_misses = static_cast<uint64_t>(d.Get("serve.cache.misses"));
  lp->serve_hits = d.Get("serve.cache.hits");
  return true;
}

// Failures of a load point: the phase's own, the cold-count check, and a
// generator that ran later than its bound (the run is then invalid). A
// failed cold-count check also makes the run incorrect.
uint64_t LoadPointFailures(const LoadPoint& lp, bool* correct) {
  uint64_t failed = lp.stats.failed;
  uint64_t shortfall = ColdMissShortfall(lp.stats.cold_sent,
                                         lp.containment_misses,
                                         lp.serve_misses);
  if (shortfall > 0) {
    std::fprintf(stderr,
                 "serve-mix: %llu cold decides sent, but containment-cache "
                 "misses rose by %llu and decision-cache misses by %llu\n",
                 static_cast<unsigned long long>(lp.stats.cold_sent),
                 static_cast<unsigned long long>(lp.containment_misses),
                 static_cast<unsigned long long>(lp.serve_misses));
    failed += shortfall;
    *correct = false;
  }
  if (lp.stats.late_p99_us > kLatenessBoundUs) {
    std::fprintf(stderr,
                 "serve-mix: invalid run: the generator ran %.0f us late "
                 "(p99), over its %.0f us bound\n",
                 lp.stats.late_p99_us, kLatenessBoundUs);
    failed = lp.stats.attempted;
  }
  return std::min(failed, lp.stats.attempted);
}

void PrintLoadPoint(const char* label, const LoadPoint& lp) {
  std::vector<double> all = lp.stats.latency_us;
  double p50 = Quantile(&all, 0.5);
  double p99 = Quantile(&all, 0.99);
  std::printf(
      "serve-mix %s: %llu requests at %.0f/s; p50 %.1f us, p99 %.1f us over "
      "%zu samples (medians of %.0f-second windows' p50s and p99s %.1f us "
      "and %.1f us); failed %llu; cold decides %llu, containment-cache "
      "misses +%llu, decision-cache misses +%llu; generator late p99 %.1f us\n",
      label, static_cast<unsigned long long>(lp.stats.attempted), kLoadRate,
      p50, p99, all.size(), kWindowUs / 1e6, lp.stats.window_p50_us,
      lp.stats.window_p99_us,
      static_cast<unsigned long long>(lp.stats.failed),
      static_cast<unsigned long long>(lp.stats.cold_sent),
      static_cast<unsigned long long>(lp.containment_misses),
      static_cast<unsigned long long>(lp.serve_misses), lp.stats.late_p99_us);
  for (int k = 0; k < 3; ++k) {
    std::vector<double> v = lp.stats.by_kind_us[k];
    double kp99 = Quantile(&v, 0.99);
    std::printf("  %s: p99 %.1f us over %zu samples\n", kKindNames[k], kp99,
                v.size());
  }
}

}  // namespace

int RunServeMix(const Args& args, Result* out) {
  // The client's threads run on one CPU and the daemon's on another, and
  // a keeper fills each CPU's idle time.
  Placement cpus = ChooseCpus();
  if (cpus.client_cpu >= 0) PinTo(cpus.client_cpu);
  IdleKeeper client_keeper(cpus.client_cpu);
  IdleKeeper daemon_keeper(
      cpus.daemon_cpu != cpus.client_cpu ? cpus.daemon_cpu : -1);
  std::string binary = SelfBinaryDir() + "/rbda_serve";
  Setup s = MakeSetup(args.seed);
  Daemon daemon;
  std::vector<std::unique_ptr<Conn>> conns;
  // Median of 21 starts; stopping the previous daemon is not timed.
  bool ok = true;
  std::vector<double> starts;
  for (int i = 0; i < 21 && ok; ++i) {
    if (i > 0) {
      conns.clear();
      daemon.Stop();
    }
    double t0 = NowUs();
    ok = StartAndLoad(binary, cpus.daemon_cpu, s, &daemon, &conns);
    starts.push_back((NowUs() - t0) / 1e6);
  }
  if (!ok) return 1;
  double setup_s = Median(starts);

  // Prime every warm key so the load point's warm decides hit the
  // daemon's decision cache.
  for (const Key& k : s.warm) {
    std::string response;
    if (!conns[0]->Call("{\"op\":\"decide\",\"schema\":\"" + s.docs[k.doc].name +
                            "\",\"query\":\"" + k.query + "\"}",
                        &response) ||
        !ResponseOk(response)) {
      std::fprintf(stderr, "serve-mix: priming %s failed\n", k.query.c_str());
      return 1;
    }
  }

  rbda::Rng rng(args.seed * 0xd1b54a32d192ed03ULL + 9);
  ColdQueries cold(args.seed);
  Checker checker{s, {}, {}};

  // The traced invocation splits its window between the untraced load
  // point, the traced one and the ladder, so that every invocation takes
  // about --seconds.
  double window_s = args.trace ? std::max(1.0, args.seconds / 3) : args.seconds;
  LoadPoint lp;
  if (!RunLoadPoint(conns, s, window_s, &rng, &cold, false, &lp)) return 1;
  PrintLoadPoint("load point", lp);
  uint64_t failed = LoadPointFailures(lp, &out->correct);
  uint64_t mismatches = checker.Check(lp.phase);
  out->attempted = lp.stats.attempted;

  if (!args.trace) {
    out->failed = std::min(lp.stats.attempted, failed + mismatches);
    out->correct = out->correct && mismatches == 0;
    double peak = PeakRssMb(daemon.pid());
    conns.clear();
    daemon.Stop();
    out->Add("setup_s", setup_s, "s");
    out->Add("throughput_per_s", Ratio(lp.stats.ok, lp.stats.elapsed_s),
             "1/s");
    out->Add("latency_p50_us", lp.stats.window_p50_us, "us");
    out->Add("latency_p99_us", lp.stats.window_p99_us, "us");
    out->Add("decided_share",
             Ratio(lp.stats.complete_decides, lp.stats.decides), "ratio");
    out->Add("peak_rss_mb", peak, "MB");
    return 0;
  }

  // Traced load point (spans around client send and receive, queue depth
  // sampled), then the rate ladder.
  SpanRecorder::Get().Enable(true);
  LoadPoint traced;
  if (!RunLoadPoint(conns, s, window_s, &rng, &cold, true, &traced)) {
    return 1;
  }
  PrintLoadPoint("traced load point", traced);
  failed += LoadPointFailures(traced, &out->correct);
  mismatches += checker.Check(traced.phase);
  out->attempted += traced.stats.attempted;

  std::map<std::string, double> v;
  AddRegistryLayers(traced.delta, &v);
  double max_ok_rate = 0;
  bool below_knee = true;
  // Each step runs on fresh connections, so an overloaded step cannot
  // leave the next one a backlog; the ladder stops at the first step past
  // the knee.
  for (size_t i = 0; i < std::size(kLadder) && below_knee; ++i) {
    Phase step;
    Schedule(s, kLoadRate * kLadder[i], kStepSeconds, &rng, &cold, &step);
    if (!Reconnect(daemon.port(), &conns)) return 1;
    RunPhase(conns, &step, false);
    PhaseStats st = Summarize(step);
    // Sheds and deadline rejects above the knee are admission figures, not
    // load-point failures; wrong answers still are.
    mismatches += checker.Check(step);
    std::vector<double> lat = st.latency_us;
    double p99 = Quantile(&lat, 0.99);
    bool meets = p99 <= kLatencyLimitUs && st.failed == 0 && !st.backlog &&
                 st.late_p99_us <= kLatenessBoundUs;
    below_knee = meets;
    if (meets) max_ok_rate = kLoadRate * kLadder[i];
    std::printf(
        "serve-mix ladder %zu: %.0f/s offered; p99 %.1f us over %zu samples; "
        "sheds %llu, deadline_in_queue %llu, failed %llu, backlog %d, "
        "generator late p99 %.1f us -> %s\n",
        i + 1, kLoadRate * kLadder[i], p99, lat.size(),
        static_cast<unsigned long long>(st.sheds),
        static_cast<unsigned long long>(st.deadline_in_queue),
        static_cast<unsigned long long>(st.failed), st.backlog ? 1 : 0,
        st.late_p99_us, meets ? "meets the limit" : "misses the limit");
    std::string p = "serve.ladder." + std::to_string(i + 1) + ".";
    v[p + "rate_per_s"] = kLoadRate * kLadder[i];
    v[p + "p99_us"] = p99;
    v[p + "sheds"] = st.sheds;
    v[p + "deadline_in_queue"] = st.deadline_in_queue;
  }
  SpanRecorder::Get().Enable(false);
  conns.clear();
  daemon.Stop();
  out->failed = std::min(out->attempted, failed + mismatches);
  out->correct = out->correct && mismatches == 0;

  const PhaseStats& ts = traced.stats;
  std::vector<double> lat_untraced = lp.stats.latency_us;
  std::vector<double> lat_traced = ts.latency_us;
  v["failed_share"] = Ratio(out->failed, out->attempted);
  v["trace_overhead_share"] = OverheadShare(Quantile(&lat_untraced, 0.5),
                                            Quantile(&lat_traced, 0.5));
  v["max_ok_rate_per_s"] = max_ok_rate;
  for (int k = 0; k < 3; ++k) {
    std::vector<double> by = ts.by_kind_us[k];
    v[std::string(kKindNames[k]) + (k == kRun ? "_p99_us" : "_decide_p99_us")] =
        Quantile(&by, 0.99);
  }
  v["serve.cold_decides"] = ts.cold_sent;
  v["serve.containment_misses"] = traced.containment_misses;
  v["serve.cache.hit_ratio"] =
      Ratio(traced.serve_hits, traced.serve_hits + traced.serve_misses);
  const RegistryReading& r = traced.after;
  v["serve.engine_decide_p99_us"] = r.Get("answerability.decide_us.p99");
  v["serve.daemon_decide_p99_us"] = r.Get("serve.latency.decide_us.p99");
  std::vector<double> decides = ts.by_kind_us[kWarm];
  decides.insert(decides.end(), ts.by_kind_us[kCold].begin(),
                 ts.by_kind_us[kCold].end());
  v["serve.client_overhead_us"] =
      Quantile(&decides, 0.5) - r.Get("serve.latency.decide_us.p50");
  v["serve.queue.depth_max"] = traced.phase.queue_depth_max;
  v["serve.generator_late_p99_us"] = ts.late_p99_us;
  AddSpanTotals(&v);
  AddPerLayer(v, out);
  return 0;
}

}  // namespace perfbench
