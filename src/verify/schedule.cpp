#include "verify/schedule.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.h"
#include "common/json.h"

namespace dqme::verify {

std::string to_string(const Action& a) {
  std::ostringstream os;
  switch (a.kind) {
    case ActionKind::kDeliver: os << "d " << a.a << ' ' << a.b; break;
    case ActionKind::kExit:    os << "x " << a.a; break;
    case ActionKind::kNotice:  os << "n " << a.a << ' ' << a.b; break;
    case ActionKind::kCrash:   os << "c " << a.a; break;
  }
  return os.str();
}

SiteId touched_site(const Action& a) {
  switch (a.kind) {
    case ActionKind::kDeliver: return a.b;  // runs the destination's handler
    case ActionKind::kExit:    return a.a;
    case ActionKind::kNotice:  return a.b;  // runs the receiver's handler
    case ActionKind::kCrash:   return kNoSite;  // dependent with everything
  }
  return kNoSite;
}

bool independent(const Action& x, const Action& y) {
  const SiteId sx = touched_site(x);
  const SiteId sy = touched_site(y);
  return sx != kNoSite && sy != kNoSite && sx != sy;
}

namespace {

// Does `a` read or write site v's locality — v's protocol state, a channel
// into or out of v, or a failure notice naming v? This is the conflict
// footprint a crash of v has: crash(v) flips v's liveness, sweeps the
// parked flights of every (v,*) and (*,v) channel, retires v's pending
// notices, and spawns new notices about v.
bool touches_victim(const Action& a, SiteId v) {
  switch (a.kind) {
    case ActionKind::kDeliver: return a.a == v || a.b == v;
    case ActionKind::kExit:    return a.a == v;
    case ActionKind::kNotice:  return a.a == v || a.b == v;
    case ActionKind::kCrash:   return true;  // crashes share the budget
  }
  return true;
}

}  // namespace

bool independent(const Action& x, const Action& y, Dpor mode) {
  if (mode == Dpor::kSleep) return independent(x, y);
  // kSource: crashes conflict exactly with their victim's locality; every
  // other pair keeps the same-handler-site relation.
  if (x.kind == ActionKind::kCrash) return !touches_victim(y, x.a);
  if (y.kind == ActionKind::kCrash) return !touches_victim(x, y.a);
  return independent(x, y);
}

std::string_view to_string(Dpor d) {
  return d == Dpor::kSource ? "source" : "sleep";
}

Dpor dpor_from_string(const std::string& name) {
  if (name == "sleep") return Dpor::kSleep;
  if (name == "source") return Dpor::kSource;
  DQME_CHECK_MSG(false, "unknown dpor mode '" << name << "' (sleep|source)");
  return Dpor::kSleep;
}

std::string_view to_string(Mutation m) {
  switch (m) {
    case Mutation::kNone:          return "none";
    case Mutation::kDoubleGrant:   return "double-grant";
    case Mutation::kLostTransfer:  return "lost-transfer";
    case Mutation::kFifoInversion: return "fifo-inversion";
    case Mutation::kDeadlockOrdering: return "deadlock-ordering";
  }
  return "none";
}

Mutation mutation_from_string(const std::string& name) {
  if (name.empty() || name == "none") return Mutation::kNone;
  if (name == "double-grant") return Mutation::kDoubleGrant;
  if (name == "lost-transfer") return Mutation::kLostTransfer;
  if (name == "fifo-inversion") return Mutation::kFifoInversion;
  if (name == "deadlock-ordering") return Mutation::kDeadlockOrdering;
  DQME_CHECK_MSG(false, "unknown mutation '" << name << "'");
  return Mutation::kNone;
}

std::string encode_actions(const std::vector<Action>& actions) {
  std::string out;
  for (const Action& a : actions) {
    if (!out.empty()) out += ';';
    out += to_string(a);
  }
  return out;
}

bool decode_actions(const std::string& text, std::vector<Action>& out) {
  out.clear();
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ';')) {
    if (item.empty()) continue;
    std::istringstream fields(item);
    char kind = 0;
    Action a;
    if (!(fields >> kind)) return false;
    switch (kind) {
      case 'd':
        a.kind = ActionKind::kDeliver;
        if (!(fields >> a.a >> a.b)) return false;
        break;
      case 'x':
        a.kind = ActionKind::kExit;
        if (!(fields >> a.a)) return false;
        break;
      case 'n':
        a.kind = ActionKind::kNotice;
        if (!(fields >> a.a >> a.b)) return false;
        break;
      case 'c':
        a.kind = ActionKind::kCrash;
        if (!(fields >> a.a)) return false;
        break;
      default:
        return false;
    }
    out.push_back(a);
  }
  return true;
}

bool json_field_str(const std::string& text, const std::string& key,
                    std::string& out) {
  const std::string pat = "\"" + key + "\":";
  size_t p = text.find(pat);
  if (p == std::string::npos) return false;
  p += pat.size();
  while (p < text.size() && text[p] == ' ') ++p;
  if (p >= text.size() || text[p] != '"') return false;
  ++p;
  out.clear();
  while (p < text.size() && text[p] != '"') {
    if (text[p] == '\\' && p + 1 < text.size()) ++p;
    out += text[p++];
  }
  return p < text.size();
}

bool json_field_num(const std::string& text, const std::string& key,
                    long& out) {
  const std::string pat = "\"" + key + "\":";
  size_t p = text.find(pat);
  if (p == std::string::npos) return false;
  p += pat.size();
  while (p < text.size() && text[p] == ' ') ++p;
  std::istringstream num(text.substr(p, 24));
  return static_cast<bool>(num >> out);
}

void write_config_fields(std::ostream& os, const WorldConfig& cfg) {
  os << "\"algo\":";
  write_json_string(os, mutex::to_string(cfg.algo));
  os << ",\"n\":" << cfg.n;
  os << ",\"quorum\":";
  write_json_string(os, cfg.quorum);
  os << ",\"cs_per_site\":" << cfg.cs_per_site;
  os << ",\"fault_tolerant\":" << (cfg.fault_tolerant ? "true" : "false");
  std::string crash_sites;
  for (SiteId s : cfg.crash_sites) {
    if (!crash_sites.empty()) crash_sites += ' ';
    crash_sites += std::to_string(s);
  }
  os << ",\"crash_sites\":";
  write_json_string(os, crash_sites);
  os << ",\"max_crashes\":" << cfg.max_crashes;
  os << ",\"mutation\":";
  write_json_string(os, to_string(cfg.mutation));
  // Written only when non-default, so pre-lock-table schedule files (and
  // their byte-for-byte goldens) round-trip unchanged.
  if (cfg.num_locks != 1) os << ",\"num_locks\":" << cfg.num_locks;
}

bool read_config_fields(const std::string& text, WorldConfig& cfg,
                        std::string* error) {
  const auto fail = [&](const char* what) {
    if (error) *error = what;
    return false;
  };
  std::string s;
  long num = 0;
  if (!json_field_str(text, "algo", s)) return fail("missing algo");
  cfg.algo = mutex::algo_from_string(s);
  if (!json_field_num(text, "n", num)) return fail("missing n");
  cfg.n = static_cast<int>(num);
  if (!json_field_str(text, "quorum", cfg.quorum))
    return fail("missing quorum");
  if (!json_field_num(text, "cs_per_site", num))
    return fail("missing cs_per_site");
  cfg.cs_per_site = static_cast<int>(num);
  cfg.fault_tolerant =
      text.find("\"fault_tolerant\":true") != std::string::npos;
  cfg.crash_sites.clear();
  if (json_field_str(text, "crash_sites", s)) {
    std::istringstream sites(s);
    SiteId site = kNoSite;
    while (sites >> site) cfg.crash_sites.push_back(site);
  }
  cfg.max_crashes = 0;
  if (json_field_num(text, "max_crashes", num))
    cfg.max_crashes = static_cast<int>(num);
  cfg.mutation = Mutation::kNone;
  if (json_field_str(text, "mutation", s))
    cfg.mutation = mutation_from_string(s);
  cfg.num_locks = 1;
  if (json_field_num(text, "num_locks", num))
    cfg.num_locks = static_cast<LockId>(num);
  return true;
}

void write_schedule(std::ostream& os, const WorldConfig& cfg,
                    const std::vector<Action>& actions,
                    const std::vector<std::string>& reports) {
  os << "{\"dqme_schedule\":1,";
  write_config_fields(os, cfg);
  os << ",\n\"actions\":";
  write_json_string(os, encode_actions(actions));
  os << ",\n\"reports\":[";
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) os << ",\n  ";
    write_json_string(os, reports[i]);
  }
  os << "]}\n";
}

bool read_schedule(std::istream& is, WorldConfig& cfg,
                   std::vector<Action>& actions, std::string* error) {
  const auto fail = [&](const char* what) {
    if (error) *error = what;
    return false;
  };
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  long marker = 0;
  if (!json_field_num(text, "dqme_schedule", marker) || marker != 1)
    return fail("not a dqme_schedule file");
  if (!read_config_fields(text, cfg, error)) return false;
  std::string s;
  if (!json_field_str(text, "actions", s)) return fail("missing actions");
  if (!decode_actions(s, actions)) return fail("malformed actions");
  return true;
}

}  // namespace dqme::verify
