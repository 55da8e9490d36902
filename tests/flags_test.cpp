// The flag table (common/flags.h) every tool and bench parses through:
// both value spellings, optional values that bind only with '=',
// repeatable flags, strict numbers, range bounds, passthrough prefixes,
// and the experiment-flag group dqme_sim and dqme_check share.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness/experiment_flags.h"

namespace dqme {
namespace {

using Args = std::vector<std::string>;

struct Table {
  int n = 0;
  int64_t t = 0;
  uint64_t budget = 0;
  double rate = 0;
  std::string name;
  bool quick = false;
  bool json = false;
  std::string json_path;
  Args crashes;
  flags::Flags f{"prog"};

  Table() {
    f.value("--n", &n, "N", "sites")
        .value("--t", &t, "TICKS", "delay")
        .value("--budget", &budget, "S", "schedules")
        .value("--rate", &rate, "R", "load")
        .value("--name", &name, "NAME", "label")
        .toggle("--quick", &quick, "short run")
        .optional("--json", &json, &json_path, "PATH", "results")
        .repeatable("--crash", "T:SITE", "crash",
                    [this](const std::string& v) { crashes.push_back(v); })
        .passthrough("--benchmark_", "google-benchmark flags");
  }
  // The usage error `args` raise, "" when they parse.
  std::string error(const Args& args) {
    try {
      f.parse_args(args);
    } catch (const flags::Error& e) {
      return e.what();
    }
    return "";
  }
};

TEST(Flags, BothSpellingsBindAValue) {
  Table a, b;
  a.f.parse_args({"--n", "9", "--t=250", "--rate", "0.5", "--name=grid"});
  b.f.parse_args({"--n=9", "--t", "250", "--rate=0.5", "--name", "grid"});
  for (const Table* x : {&a, &b}) {
    EXPECT_EQ(x->n, 9);
    EXPECT_EQ(x->t, 250);
    EXPECT_DOUBLE_EQ(x->rate, 0.5);
    EXPECT_EQ(x->name, "grid");
  }
}

TEST(Flags, OptionalValueBindsOnlyWithEquals) {
  Table a;
  EXPECT_EQ(a.f.parse_args({"--json", "out.json"}).positional,
            Args{"out.json"});
  EXPECT_TRUE(a.json);
  EXPECT_EQ(a.json_path, "");
  Table b;
  EXPECT_TRUE(b.f.parse_args({"--json=out.json"}).positional.empty());
  EXPECT_TRUE(b.json);
  EXPECT_EQ(b.json_path, "out.json");
}

TEST(Flags, RepeatableFlagSeesEveryOccurrence) {
  Table a;
  a.f.parse_args({"--crash", "500:0", "--crash=900:7"});
  EXPECT_EQ(a.crashes, (Args{"500:0", "900:7"}));
}

TEST(Flags, MalformedValuesAreRejectedNamingTheFlag) {
  for (const Args& args :
       {Args{"--n", "9x"}, Args{"--n", "abc"}, Args{"--n="}, Args{"--n", ""},
        Args{"--n", "1.5"}, Args{"--n", "99999999999"}, Args{"--budget", "-1"},
        Args{"--rate", "0.5x"}, Args{"--rate", " 1"}}) {
    const std::string err = Table().error(args);
    EXPECT_NE(err.find(args[0].substr(0, args[0].find('='))),
              std::string::npos)
        << args[0] << " -> '" << err << "'";
  }
  Table t;
  EXPECT_EQ(t.error({"--no-such-flag"}), "unknown flag '--no-such-flag'");
  EXPECT_EQ(t.error({"--n"}), "missing value for --n");
  EXPECT_EQ(t.error({"--quick=1"}), "--quick does not take a value");
  EXPECT_EQ(t.error({"--json="}), "--json wants a value after '='");
}

TEST(Flags, MinBoundKeepsItsMessage) {
  int seeds = 0, threads = 0;
  flags::Flags f("prog");
  f.value("--seeds", &seeds, "K", "runs").min(1);
  f.value("--threads", &threads, "K", "pumps").min(2, "custom message");
  EXPECT_THROW(f.parse_args({"--seeds=0"}), flags::Error);
  try {
    f.parse_args({"--threads", "1"});
    ADD_FAILURE() << "no error";
  } catch (const flags::Error& e) {
    EXPECT_STREQ(e.what(), "custom message");
  }
  f.parse_args({"--seeds", "3", "--threads=2"});
  EXPECT_EQ(seeds, 3);
  EXPECT_EQ(threads, 2);
}

TEST(Flags, ChoiceRejectsUnknownNames) {
  enum class Mode { kA, kB } mode = Mode::kA;
  flags::Flags f("prog");
  f.choice("--mode", &mode, {{"a", Mode::kA}, {"b", Mode::kB}}, "M", "mode");
  f.parse_args({"--mode=b"});
  EXPECT_EQ(mode, Mode::kB);
  EXPECT_THROW(f.parse_args({"--mode", "c"}), flags::Error);
}

TEST(Flags, HelpIsGeneratedFromTheEntries) {
  Table t;
  EXPECT_TRUE(t.f.parse_args({"--n", "3", "--help", "--bogus"}).help);
  std::ostringstream help;
  t.f.print_help(help);
  for (const char* s : {"--json[=PATH]", "--crash T:SITE", "(repeatable)",
                        "--benchmark_*"})
    EXPECT_NE(help.str().find(s), std::string::npos) << s;
}

TEST(Flags, PassthroughArgumentsStayInArgv) {
  Table t;
  Args words = {"prog", "--quick", "--benchmark_filter=x", "pos"};
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  int argc = static_cast<int>(argv.size());
  EXPECT_EQ(t.f.parse(argc, argv.data()), Args{"pos"});
  EXPECT_TRUE(t.quick);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--benchmark_filter=x");
}

TEST(ExperimentFlags, SharedGroupFillsTheConfig) {
  harness::ExperimentConfig cfg;
  double rate = 0.5;
  flags::Flags f("prog");
  harness::add_experiment_flags(f, cfg, rate);
  f.parse_args({"--algo=maekawa", "--n", "9", "--delay", "uniform",
                "--load=open", "--rate", "0.25", "--crash", "500:0",
                "--crash=900:7", "--locks", "4", "--liveness-bound=77"});
  EXPECT_EQ(cfg.algo, mutex::Algo::kMaekawa);
  EXPECT_EQ(cfg.n, 9);
  EXPECT_EQ(cfg.delay_kind, harness::ExperimentConfig::DelayKind::kUniform);
  ASSERT_EQ(cfg.crashes.size(), 2u);
  EXPECT_EQ(cfg.crashes[1].at, 900);
  EXPECT_EQ(cfg.crashes[1].victim, 7);
  EXPECT_EQ(cfg.options.num_locks, 4);
  EXPECT_EQ(cfg.liveness_bound, 77);
  EXPECT_EQ(f.seen_in(harness::kSimulatorSection),
            (Args{"--delay", "--load", "--rate", "--crash",
                  "--liveness-bound"}));
  harness::apply_open_rate(cfg, rate);
  EXPECT_DOUBLE_EQ(cfg.workload.arrival_rate, 0.25 / (2 * 1000 + 10) / 9);
  for (const Args& bad : {Args{"--algo", "nope"}, Args{"--crash", "500"},
                          Args{"--crash", "500:x"}, Args{"--locks", "0"},
                          Args{"--delay", "gamma"}})
    EXPECT_THROW(f.parse_args(bad), flags::Error) << bad[0] << " " << bad[1];
}

}  // namespace
}  // namespace dqme
