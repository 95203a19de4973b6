// concat — command-line front end of the framework, playing the role of
// the paper's Concat prototype for the steps that work offline from the
// t-spec alone: validating and pretty-printing specifications, rendering
// and analyzing the TFM, enumerating transactions, generating executable
// test suites (concat-suite format) and C++ driver source (Figs. 6-7).
//
//   concat validate <tspec>                     semantic check
//   concat print <tspec>                        normalized round-trip
//   concat dot <tspec>                          Graphviz rendering of the TFM
//   concat transactions <tspec> [options]       enumerate transactions
//   concat assemble <assembly-tspec> [options]  synchronous product of an
//                                               assembly (stc::assembly)
//   concat suite <tspec> [options] [-o FILE]    generate + save a test suite
//   concat gen <tspec> [options] [-o FILE]      generate C++ driver source
//   concat fuzz <component> [options]           coverage-guided fuzz loop
//   concat run <component> [options]            one plain suite execution
//   concat shrink <component> --case FILE       re-shrink a corpus entry
//   concat stats <telemetry.jsonl>              summarize campaign telemetry
//
// Every subcommand accepts --trace-out FILE (Chrome trace-event JSON of
// the run, loadable in Perfetto) and --metrics-out FILE (counter +
// latency dump; JSON when FILE ends in .json, plain text otherwise).
// Other options are per-subcommand; an option that a subcommand does
// not take is a usage error naming the flag (exit 2).
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "shop_component.h"
#include "shop_targets.h"
#include "stc/assembly/product.h"
#include "stc/campaign/seed.h"
#include "stc/campaign/session.h"
#include "stc/campaign/telemetry.h"
#include "stc/codegen/driver_codegen.h"
#include "stc/core/self_testable.h"
#include "stc/driver/generator.h"
#include "stc/driver/runner.h"
#include "stc/driver/suite_io.h"
#include "stc/fuzz/fuzzer.h"
#include "stc/fuzz/shrink.h"
#include "stc/history/version_diff.h"
#include "stc/kill/kill.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/report.h"
#include "stc/obs/stats.h"
#include "stc/sandbox/codec.h"
#include "stc/sandbox/worker_pool.h"
#include "stc/serve/builtin_host.h"
#include "stc/serve/dispatch.h"
#include "stc/serve/worker.h"
#include "stc/support/error.h"
#include "stc/tfm/coverage.h"
#include "stc/tspec/assembly.h"
#include "stc/tspec/parser.h"

namespace {

using namespace stc;

int usage(std::ostream& os) {
    os << "usage: concat <command> <tspec-file> [options]\n"
          "commands:\n"
          "  validate       parse and semantically check a t-spec\n"
          "  describe       human-readable summary of the specification\n"
          "  print          normalized t-spec (round-trip through the parser)\n"
          "  dot            Graphviz DOT of the transaction flow model\n"
          "  transactions   enumerate transactions (birth -> death paths)\n"
          "  assemble       build the synchronous product of an assembly:\n"
          "                 concat assemble ASSEMBLY.tspec [--dot]\n"
          "                 [--transactions [--max-visits N] [--criterion C]]\n"
          "                 default output: construction stats + validation\n"
          "  coverage       node/link coverage of the selected criterion\n"
          "  suite          generate a test suite (concat-suite text format)\n"
          "  gen            generate C++ driver source (paper Figs. 6-7)\n"
          "  replan         classify a frozen suite against a NEW release:\n"
          "                 concat replan OLD.tspec --new NEW.tspec --frozen S.txt\n"
          "                 [-o STILL_VALID.txt]\n"
          "  campaign       parallel mutation campaign over a registered\n"
          "                 component (coblist, sortable, wallet, shop,\n"
          "                 audited-wallet):\n"
          "                 concat campaign <component> [--assembly] [--jobs N]\n"
          "                 [--seed N] [--cases N] [--probe] [--resume FILE]\n"
          "                 [--shrink-corpus DIR] [--max-shrink-steps N]\n"
          "                 [--isolate [--timeout-ms N] [--rlimit-as MB]]\n"
          "                 [--model] [--no-prune] [--telemetry-out FILE]\n"
          "                 [-o REPORT]\n"
          "  kill           synthesize killers for a finished campaign's\n"
          "                 surviving mutants (bounded product-state search;\n"
          "                 every killer is execution-verified and shrunk):\n"
          "                 concat kill <component> --alive --resume FILE\n"
          "                 [--model] [--budget-states N] [--max-depth N]\n"
          "                 [--jobs N] [--seed N] [--cases N] [--probe]\n"
          "                 [--corpus DIR] [--max-shrink-steps N]\n"
          "                 [--no-prune] [--telemetry-out FILE] [-o REPORT]\n"
          "  fuzz           coverage-guided transaction fuzzing of a registered\n"
          "                 single-class component (coblist, sortable, wallet):\n"
          "                 concat fuzz <component> [--iters N] [--seed N]\n"
          "                 [--corpus DIR] [--mutant ID] [--max-shrink-steps N]\n"
          "                 [--isolate [--timeout-ms N] [--rlimit-as MB]]\n"
          "                 [--model] [--telemetry-out FILE] [-o REPORT]\n"
          "  run            execute the generated suite once and report verdicts:\n"
          "                 concat run <component> [--seed N] [--cases N]\n"
          "                 [--mutant ID] [--model] [-o REPORT]\n"
          "  shrink         re-shrink / verify one corpus entry:\n"
          "                 concat shrink <component> --case FILE\n"
          "                 [--mutant ID] [--max-shrink-steps N] [--corpus DIR]\n"
          "  serve          campaign worker daemon (docs/FORMATS.md §10):\n"
          "                 concat serve [--listen PORT] [--bind ADDR]\n"
          "                 [--once] [--telemetry-out FILE]\n"
          "  dispatch       shard a campaign across serve daemons:\n"
          "                 concat dispatch <component> [--assembly]\n"
          "                 --workers host:port[,host:port...] [--seed N]\n"
          "                 [--cases N] [--probe] [--model] [--no-prune]\n"
          "                 [--resume FILE]\n"
          "                 [--keepalive-ms N] [--dead-after-ms N]\n"
          "                 [--telemetry-out FILE] [--progress]\n"
          "                 [--telemetry-interval-ms N] [-o REPORT]\n"
          "  stats          summarize campaign telemetry stream(s):\n"
          "                 concat stats TELEMETRY.jsonl [MORE.jsonl...]\n"
          "                 [--top N] [--json] [-o REPORT]\n"
          "                 concat stats --follow TELEMETRY.jsonl\n"
          "options:\n"
          "  --trace-out F   (any command) Chrome trace-event JSON of this run\n"
          "  --metrics-out F (any command) metrics dump; JSON when F ends in .json\n"
          "  --seed N        random seed for value generation\n"
          "  --max-visits N  cycle unrolling bound (default 2)\n"
          "  --cases N       test cases per transaction (default 1)\n"
          "  --criterion C   all-transactions | all-links | all-nodes\n"
          "  --states        also generate mid-life entry variants (State records)\n"
          "  --include H     (gen) #include to emit; repeatable\n"
          "  --using NS      (gen) using namespace to emit; repeatable\n"
          "  --log FILE      (gen) log file used by the generated driver\n"
          "  --new FILE      (replan) the new release's t-spec\n"
          "  --frozen FILE   (replan) the frozen concat-suite file\n"
          "  --assembly      (campaign, dispatch) the target is an assembly\n"
          "                  product; required for assembly targets, rejected\n"
          "                  for single-class ones\n"
          "  --dot           (assemble) Graphviz DOT of the product TFM\n"
          "  --transactions  (assemble) enumerate the product's transactions\n"
          "  --jobs N        (campaign) worker threads; 0 = all cores (default 1)\n"
          "  --probe         (campaign) amplified probe suite for equivalence\n"
          "  --resume FILE   (campaign) resumable result store (JSONL);\n"
          "                  (kill) the finished campaign's store to read\n"
          "                  survivors from and publish raised fates into\n"
          "  --telemetry-out F (campaign, fuzz, kill) JSONL telemetry\n"
          "  --shrink-corpus D (campaign) shrink each kill into corpus dir D\n"
          "  --isolate       (campaign, fuzz) run each item in a forked sandbox\n"
          "                  worker: a real crash/hang/OOM kills only the worker\n"
          "  --timeout-ms N  (with --isolate) per-item wall deadline, then SIGKILL\n"
          "                  (default 5000; 0 disables)\n"
          "  --rlimit-as MB  (with --isolate) worker address-space cap (RLIMIT_AS)\n"
          "  --model         (campaign, fuzz, run, kill) lockstep reference-model\n"
          "                  oracle (stc::model): kills/verdicts on divergence\n"
          "  --prune / --no-prune  (campaign, dispatch) the fast execution\n"
          "                  tier: skip (mutant, case) pairs the coverage\n"
          "                  index proves unreachable and resume covered\n"
          "                  cases from un-mutated prefix checkpoints; fates are\n"
          "                  byte-identical either way (default on)\n"
          "  --alive         (kill) target the store's surviving mutants —\n"
          "                  required, so the subject of the pass is explicit\n"
          "  --budget-states N  (kill) product states the search may enqueue\n"
          "                  per mutant, across all value rounds (default 4096)\n"
          "  --max-depth N   (kill) longest explored call path (default 12)\n"
          "  --iters N       (fuzz) exploration executions (default 500)\n"
          "  --corpus D      (fuzz, shrink, kill) corpus directory for\n"
          "                  reproducers\n"
          "  --mutant ID     (fuzz, shrink, run) activate this mutant while running\n"
          "  --max-shrink-steps N  shrink budget per finding (default 512)\n"
          "  --case FILE     (shrink) the corpus entry to re-shrink\n"
          "  --top N         (stats) rows in the slowest-item table (default 10)\n"
          "  --follow        (stats) tail ONE growing telemetry file, re-render\n"
          "                  a live snapshot per batch, exit at campaign-end\n"
          "  --json          (stats) machine-readable summary instead of tables\n"
          "  --listen PORT   (serve) TCP port to listen on (0 = ephemeral,\n"
          "                  printed on stdout)\n"
          "  --bind ADDR     (serve) listen address (default 127.0.0.1; the\n"
          "                  protocol is unauthenticated — 0.0.0.0 opts in to\n"
          "                  cross-host exposure)\n"
          "  --once          (serve) exit after one coordinator session\n"
          "  --workers LIST  (dispatch) comma-separated host:port daemons\n"
          "  --keepalive-ms N  (dispatch) silence before a ping (default 500)\n"
          "  --dead-after-ms N (dispatch) silence before a worker is declared\n"
          "                  dead and its items re-dispatched (default 5000)\n"
          "  --progress      (dispatch) render a live fleet snapshot to stderr\n"
          "                  at the telemetry interval\n"
          "  --telemetry-interval-ms N  (dispatch) worker metrics-snapshot and\n"
          "                  --progress cadence (default 1000; 0 = fates only)\n"
          "  -o FILE         write output to FILE instead of stdout\n";
    return 2;
}

struct Options {
    std::string command;
    std::string tspec_path;  // campaign: component name; stats: telemetry file
    driver::GeneratorOptions generator;
    codegen::CodegenOptions codegen;
    std::optional<std::string> output_path;
    std::optional<std::string> new_tspec_path;     // replan
    std::optional<std::string> frozen_suite_path;  // replan
    std::size_t jobs = 1;                          // campaign
    bool probe = false;                            // campaign
    std::optional<std::string> store_path;         // campaign --resume
    std::optional<std::string> telemetry_path;     // campaign --telemetry-out
    std::optional<std::string> trace_path;         // --trace-out (any command)
    std::optional<std::string> metrics_path;       // --metrics-out (any command)
    std::size_t top = 10;                          // stats --top
    bool follow = false;                           // stats --follow
    bool json_stats = false;                       // stats --json
    bool progress = false;                         // dispatch --progress
    std::uint64_t telemetry_interval_ms = 1000;    // dispatch
    std::size_t iters = 500;                       // fuzz --iters
    std::optional<std::string> corpus_dir;         // fuzz/shrink --corpus
    std::size_t max_shrink_steps = 512;            // fuzz/shrink/campaign
    std::optional<std::string> mutant_id;          // fuzz/shrink --mutant
    std::optional<std::string> case_path;          // shrink --case
    std::optional<std::string> shrink_corpus;      // campaign --shrink-corpus
    bool alive = false;                            // kill --alive
    std::size_t budget_states = 4096;              // kill --budget-states
    std::size_t max_depth = 12;                    // kill --max-depth
    bool assembly = false;                         // campaign/dispatch --assembly
    bool dot_product = false;                      // assemble --dot
    bool list_transactions = false;                // assemble --transactions
    bool isolate = false;                          // campaign/fuzz --isolate
    bool model = false;                            // campaign/fuzz/run --model
    bool prune = true;                             // campaign/dispatch --prune
    std::uint64_t timeout_ms = 5000;               // --timeout-ms
    std::uint64_t rlimit_as_mb = 0;                // --rlimit-as
    std::uint64_t listen_port = 0;                 // serve --listen
    std::string bind_host = "127.0.0.1";           // serve --bind
    bool once = false;                             // serve --once
    std::optional<std::string> workers;            // dispatch --workers
    std::uint64_t keepalive_ms = 500;              // dispatch --keepalive-ms
    std::uint64_t dead_after_ms = 5000;            // dispatch --dead-after-ms
    std::vector<std::string> extra_inputs;         // stats: more JSONL files
    obs::Context obs;                              // built in main()
};

/// Which options each subcommand takes.  `--trace-out`, `--metrics-out`
/// and `-o` are accepted everywhere; everything else is per-command, so
/// a stray flag fails loudly instead of being silently ignored.
bool flag_allowed(const std::string& command, const std::string& flag) {
    if (flag == "--trace-out" || flag == "--metrics-out" || flag == "-o") {
        return true;
    }
    auto any_of = [&flag](std::initializer_list<const char*> flags) {
        for (const char* f : flags) {
            if (flag == f) return true;
        }
        return false;
    };
    if (command == "validate" || command == "print" || command == "dot") {
        return false;
    }
    if (command == "describe") return any_of({"--max-visits"});
    if (command == "transactions" || command == "coverage") {
        return any_of({"--max-visits", "--criterion"});
    }
    if (command == "assemble") {
        return any_of(
            {"--max-visits", "--criterion", "--dot", "--transactions"});
    }
    if (command == "suite") {
        return any_of(
            {"--seed", "--max-visits", "--cases", "--criterion", "--states"});
    }
    if (command == "gen") {
        return any_of({"--seed", "--max-visits", "--cases", "--criterion",
                       "--states", "--include", "--using", "--log"});
    }
    if (command == "replan") return any_of({"--new", "--frozen"});
    if (command == "campaign") {
        return any_of({"--seed", "--max-visits", "--cases", "--criterion",
                       "--states", "--jobs", "--probe", "--resume",
                       "--telemetry-out", "--shrink-corpus",
                       "--max-shrink-steps", "--isolate", "--timeout-ms",
                       "--rlimit-as", "--model", "--prune", "--no-prune",
                       "--assembly"});
    }
    if (command == "kill") {
        return any_of({"--alive", "--budget-states", "--max-depth", "--seed",
                       "--max-visits", "--cases", "--criterion", "--states",
                       "--jobs", "--probe", "--resume", "--telemetry-out",
                       "--corpus", "--max-shrink-steps", "--model", "--prune",
                       "--no-prune", "--assembly"});
    }
    if (command == "fuzz") {
        return any_of({"--iters", "--seed", "--corpus", "--max-shrink-steps",
                       "--mutant", "--max-visits", "--cases",
                       "--telemetry-out", "--isolate", "--timeout-ms",
                       "--rlimit-as", "--model"});
    }
    if (command == "run") {
        return any_of({"--seed", "--max-visits", "--cases", "--criterion",
                       "--states", "--mutant", "--model"});
    }
    if (command == "shrink") {
        return any_of(
            {"--case", "--mutant", "--max-shrink-steps", "--corpus", "--seed"});
    }
    if (command == "stats") return any_of({"--top", "--follow", "--json"});
    if (command == "serve") {
        return any_of({"--listen", "--bind", "--once", "--telemetry-out"});
    }
    if (command == "dispatch") {
        return any_of({"--seed", "--max-visits", "--cases", "--criterion",
                       "--states", "--probe", "--model", "--prune",
                       "--no-prune", "--workers",
                       "--resume", "--telemetry-out", "--keepalive-ms",
                       "--dead-after-ms", "--progress",
                       "--telemetry-interval-ms", "--assembly"});
    }
    // Unknown command: main() reports it; don't reject its flags first.
    return true;
}

/// Strict numeric flag parsing: the whole token must be a number.
/// std::nullopt (with a message) instead of std::stoull's uncaught
/// std::invalid_argument, so `--jobs banana` is a usage error, not an
/// abort.
std::optional<std::uint64_t> parse_count(const std::string& flag,
                                         const std::string& text) {
    std::uint64_t value = 0;
    const auto [p, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || p != text.data() + text.size()) {
        std::cerr << "concat: " << flag << " expects a non-negative number, got '"
                  << text << "'\n";
        return std::nullopt;
    }
    return value;
}

std::optional<Options> parse_args(int argc, char** argv) {
    if (argc < 2) return std::nullopt;
    Options out;
    out.command = argv[1];
    // `serve` takes no positional operand — the campaign config arrives
    // in the coordinator's handshake — so argv[2] may already be a flag
    // (or absent: an ephemeral-port daemon).
    int first = 3;
    if (out.command == "serve") {
        first = 2;
    } else if (out.command == "stats") {
        // Flags may precede the file (`stats --follow F`); the loop
        // below collects every positional into extra_inputs and the
        // first one is promoted to the primary file afterwards.
        first = 2;
    } else {
        if (argc < 3) return std::nullopt;
        out.tspec_path = argv[2];
    }

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::optional<std::string> {
            if (i + 1 >= argc) return std::nullopt;
            return std::string(argv[++i]);
        };
        if (!arg.empty() && arg[0] != '-') {
            // `stats` aggregates any number of telemetry files; no
            // other command takes extra positional operands.
            if (out.command == "stats") {
                out.extra_inputs.push_back(arg);
                continue;
            }
            std::cerr << "concat " << out.command << ": unexpected operand '"
                      << arg << "'\n";
            return std::nullopt;
        }
        if (!flag_allowed(out.command, arg)) {
            std::cerr << "concat " << out.command << ": unknown option '" << arg
                      << "'\n";
            return std::nullopt;
        }
        if (arg == "--seed") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            out.generator.seed = *n;
        } else if (arg == "--max-visits") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            out.generator.enumeration.max_node_visits = *n;
        } else if (arg == "--cases") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            out.generator.cases_per_transaction = *n;
        } else if (arg == "--criterion") {
            const auto v = next();
            if (!v) return std::nullopt;
            if (*v == "all-transactions") {
                out.generator.criterion = tfm::Criterion::AllTransactions;
            } else if (*v == "all-links") {
                out.generator.criterion = tfm::Criterion::AllEdges;
            } else if (*v == "all-nodes") {
                out.generator.criterion = tfm::Criterion::AllNodes;
            } else {
                return std::nullopt;
            }
        } else if (arg == "--states") {
            out.generator.include_entry_states = true;
        } else if (arg == "--include") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.codegen.includes.push_back(*v);
        } else if (arg == "--using") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.codegen.usings.push_back(*v);
        } else if (arg == "--log") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.codegen.log_file = *v;
        } else if (arg == "--new") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.new_tspec_path = *v;
        } else if (arg == "--frozen") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.frozen_suite_path = *v;
        } else if (arg == "--jobs") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            out.jobs = *n;
        } else if (arg == "--probe") {
            out.probe = true;
        } else if (arg == "--resume") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.store_path = *v;
        } else if (arg == "--telemetry-out") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.telemetry_path = *v;
        } else if (arg == "--trace-out") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.trace_path = *v;
        } else if (arg == "--metrics-out") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.metrics_path = *v;
        } else if (arg == "--iters") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            out.iters = *n;
        } else if (arg == "--corpus") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.corpus_dir = *v;
        } else if (arg == "--max-shrink-steps") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            out.max_shrink_steps = *n;
        } else if (arg == "--mutant") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.mutant_id = *v;
        } else if (arg == "--case") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.case_path = *v;
        } else if (arg == "--shrink-corpus") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.shrink_corpus = *v;
        } else if (arg == "--alive") {
            out.alive = true;
        } else if (arg == "--budget-states") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            out.budget_states = *n;
        } else if (arg == "--max-depth") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            out.max_depth = *n;
        } else if (arg == "--assembly") {
            out.assembly = true;
        } else if (arg == "--dot") {
            out.dot_product = true;
        } else if (arg == "--transactions") {
            out.list_transactions = true;
        } else if (arg == "--isolate") {
            out.isolate = true;
        } else if (arg == "--model") {
            out.model = true;
        } else if (arg == "--prune") {
            out.prune = true;
        } else if (arg == "--no-prune") {
            out.prune = false;
        } else if (arg == "--timeout-ms") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            out.timeout_ms = *n;
        } else if (arg == "--rlimit-as") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            out.rlimit_as_mb = *n;
        } else if (arg == "--top") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            out.top = *n;
        } else if (arg == "--follow") {
            out.follow = true;
        } else if (arg == "--json") {
            out.json_stats = true;
        } else if (arg == "--progress") {
            out.progress = true;
        } else if (arg == "--telemetry-interval-ms") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            if (*n > static_cast<std::uint64_t>(
                         std::numeric_limits<int>::max())) {
                std::cerr << "concat dispatch: " << arg << " too large (max "
                          << std::numeric_limits<int>::max() << ")\n";
                return std::nullopt;
            }
            out.telemetry_interval_ms = *n;
        } else if (arg == "--listen") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            if (*n > 65535) {
                std::cerr << "concat serve: --listen expects a port (0-65535)\n";
                return std::nullopt;
            }
            out.listen_port = *n;
        } else if (arg == "--bind") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.bind_host = *v;
        } else if (arg == "--once") {
            out.once = true;
        } else if (arg == "--workers") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.workers = *v;
        } else if (arg == "--keepalive-ms" || arg == "--dead-after-ms") {
            const auto v = next();
            if (!v) return std::nullopt;
            const auto n = parse_count(arg, *v);
            if (!n) return std::nullopt;
            // The dispatch options hold these as int milliseconds; a
            // larger value would wrap negative and insta-kill every
            // worker's keepalive.
            if (*n > static_cast<std::uint64_t>(
                         std::numeric_limits<int>::max())) {
                std::cerr << "concat dispatch: " << arg << " too large (max "
                          << std::numeric_limits<int>::max() << ")\n";
                return std::nullopt;
            }
            (arg == "--keepalive-ms" ? out.keepalive_ms : out.dead_after_ms) =
                *n;
        } else if (arg == "-o") {
            const auto v = next();
            if (!v) return std::nullopt;
            out.output_path = *v;
        } else {
            std::cerr << "concat " << out.command << ": unknown option '" << arg
                      << "'\n";
            return std::nullopt;
        }
    }
    if (out.command == "stats") {
        if (out.extra_inputs.empty()) return std::nullopt;  // no file given
        out.tspec_path = out.extra_inputs.front();
        out.extra_inputs.erase(out.extra_inputs.begin());
    }
    return out;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw Error("cannot open t-spec file: " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

int emit(const Options& options, const std::string& text) {
    if (options.output_path) {
        std::ofstream out(*options.output_path);
        out << text;
        out.flush();
        if (!out) throw Error("cannot write output file: " + *options.output_path);
        std::cout << "wrote " << text.size() << " bytes to " << *options.output_path
                  << "\n";
    } else {
        std::cout << text;
    }
    return 0;
}

int cmd_validate(const Options& options, const tspec::ComponentSpec& spec) {
    (void)options;
    const auto spec_problems = spec.validate();
    for (const auto& p : spec_problems) {
        std::cout << "spec: [" << p.where << "] " << p.message << "\n";
    }
    std::vector<tfm::Diagnostic> model_problems;
    if (spec_problems.empty() && !spec.nodes.empty()) {
        model_problems = spec.build_tfm().diagnose();
        for (const auto& d : model_problems) {
            std::cout << "model: [" << (d.node_id.empty() ? "*" : d.node_id) << "] "
                      << to_string(d.kind) << ": " << d.detail << "\n";
        }
    }
    const bool clean = spec_problems.empty() && model_problems.empty();
    std::cout << spec.class_name << ": " << (clean ? "valid" : "INVALID") << " ("
              << spec.methods.size() << " method(s), " << spec.nodes.size()
              << " node(s), " << spec.edges.size() << " edge(s))\n";
    return clean ? 0 : 1;
}

int cmd_describe(const Options& options, const tspec::ComponentSpec& spec) {
    std::ostringstream out;
    out << "class " << spec.class_name;
    if (spec.is_abstract) out << " (abstract)";
    if (!spec.superclass.empty()) out << " : " << spec.superclass;
    out << "\n";

    if (!spec.attributes.empty()) {
        out << "attributes:\n";
        for (const auto& a : spec.attributes) {
            out << "  " << a.name << " : "
                << (a.domain ? a.domain->describe()
                             : std::string(to_string(a.type)) + " " + a.class_name)
                << "\n";
        }
    }
    out << "methods:\n";
    for (const auto& m : spec.methods) {
        out << "  " << m.id << "  " << m.signature();
        if (!m.return_type.empty()) out << " -> " << m.return_type;
        out << "  [" << to_string(m.category) << "]\n";
    }
    if (!spec.states.empty()) {
        out << "predefined states:";
        for (const auto& st : spec.states) out << " " << st;
        out << "\n";
    }
    for (const auto& [param, types] : spec.template_bindings) {
        out << "template parameter " << param << ":";
        for (const auto& t : types) out << " " << t;
        out << "\n";
    }
    if (!spec.nodes.empty()) {
        const auto graph = spec.build_tfm();
        const auto transactions =
            graph.enumerate_transactions(options.generator.enumeration);
        out << "test model: " << graph.node_count() << " node(s), "
            << graph.edge_count() << " link(s), " << transactions.size()
            << " transaction(s)\n";
    }
    return emit(options, out.str());
}

int cmd_transactions(const Options& options, const tspec::ComponentSpec& spec) {
    const auto graph = spec.build_tfm();
    const auto all = graph.enumerate_transactions(options.generator.enumeration);
    const auto selected =
        tfm::select_transactions(graph, all, options.generator.criterion);
    std::ostringstream out;
    for (std::size_t index : selected) {
        out << graph.describe(all[index]) << "\n";
    }
    out << "# " << selected.size() << " transaction(s) selected of " << all.size()
        << " enumerated (" << to_string(options.generator.criterion) << ")\n";
    return emit(options, out.str());
}

// `concat assemble ASSEMBLY.tspec`: parse an assembly block, resolve
// each role's t-spec and build the synchronous product (stc::assembly).
// A role whose `Role (id, 'Class', 'file.tspec')` record names a file
// loads that t-spec relative to the assembly file's directory; roles
// without one resolve to the built-in shop role specs by class name
// (Wallet, Ledger, Inventory, StockControl).  Default output is the construction stats plus the
// synthesized spec's validation verdict; --dot renders the product TFM
// and --transactions enumerates its transactions, exactly as the plain
// `dot` / `transactions` commands do for a single-class t-spec.
int cmd_assemble(const Options& options) {
    const auto assembly = tspec::parse_assembly(read_file(options.tspec_path));
    std::map<std::string, tspec::ComponentSpec> role_specs;
    const auto base = std::filesystem::path(options.tspec_path).parent_path();
    for (const auto& role : assembly.roles) {
        if (!role.spec_file.empty()) {
            role_specs.emplace(role.id, tspec::parse_tspec(read_file(
                                            (base / role.spec_file).string())));
        } else {
            role_specs.emplace(role.id,
                               examples::shop_role_spec_for(role.class_name));
        }
    }
    const auto product = assembly::build_product(assembly, role_specs);

    if (options.dot_product) {
        return emit(options, product.spec.build_tfm().to_dot());
    }
    if (options.list_transactions) {
        return cmd_transactions(options, product.spec);
    }

    std::ostringstream out;
    out << "assembly " << assembly.name << ": " << assembly.roles.size()
        << " role(s), " << assembly.wiring.size() << " wire(s), "
        << assembly.exports.size() << " export(s)\n"
        << assembly::describe(product.stats);
    // build_product already rejects hard errors; re-validating the
    // synthesized spec here keeps the command an end-to-end check.
    const auto spec_problems = product.spec.validate();
    for (const auto& p : spec_problems) {
        out << "product spec: [" << p.where << "] " << p.message << "\n";
    }
    out << "product " << product.spec.class_name << ": "
        << (spec_problems.empty() ? "valid" : "INVALID") << " ("
        << product.spec.methods.size() << " method(s), "
        << product.spec.nodes.size() << " node(s), "
        << product.spec.edges.size() << " edge(s))\n";
    const int rc = emit(options, out.str());
    return spec_problems.empty() ? rc : 1;
}

int cmd_coverage(const Options& options, const tspec::ComponentSpec& spec) {
    const auto graph = spec.build_tfm();
    const auto all = graph.enumerate_transactions(options.generator.enumeration);
    const auto selected =
        tfm::select_transactions(graph, all, options.generator.criterion);
    std::vector<tfm::Transaction> chosen;
    chosen.reserve(selected.size());
    for (std::size_t index : selected) chosen.push_back(all[index]);
    const auto report = tfm::measure_coverage(graph, chosen);

    std::ostringstream out;
    out << "criterion: " << to_string(options.generator.criterion) << "\n"
        << "transactions: " << chosen.size() << " of " << all.size()
        << " enumerated\n"
        << "node coverage: " << report.nodes_covered << "/" << report.nodes_total
        << "\n"
        << "link coverage: " << report.edges_covered << "/" << report.edges_total
        << "\n";
    return emit(options, out.str());
}

int cmd_suite(const Options& options, const tspec::ComponentSpec& spec) {
    const auto suite = driver::DriverGenerator(spec, options.generator).generate();
    std::ostringstream out;
    driver::save_suite(out, suite);
    return emit(options, out.str());
}

int cmd_gen(const Options& options, const tspec::ComponentSpec& spec) {
    const auto suite = driver::DriverGenerator(spec, options.generator).generate();
    const codegen::DriverCodegen generator(spec, options.codegen);
    return emit(options, generator.suite_source(suite));
}

int cmd_replan(const Options& options, const tspec::ComponentSpec& old_spec) {
    if (!options.new_tspec_path || !options.frozen_suite_path) {
        std::cerr << "concat replan: --new and --frozen are required\n";
        return 2;
    }
    const auto new_spec = tspec::parse_tspec(read_file(*options.new_tspec_path));
    std::ifstream frozen_in(*options.frozen_suite_path);
    if (!frozen_in) {
        throw Error("cannot open frozen suite: " + *options.frozen_suite_path);
    }
    const auto frozen = driver::load_suite(frozen_in);

    const auto delta = history::diff_specs(old_spec, new_spec);
    const auto plan = history::replan_suite(frozen, delta);

    std::cout << "release diff for " << old_spec.class_name << ":\n";
    for (const auto& [id, change] : delta.methods) {
        if (change == history::MethodChange::Unchanged) continue;
        std::cout << "  " << id << ": " << to_string(change) << "\n";
    }
    if (delta.model_changed) std::cout << "  (test model changed)\n";
    std::cout << "frozen suite: " << frozen.size() << " case(s)\n"
              << "  still valid: " << plan.reusable() << "\n"
              << "  regenerate:  " << plan.regenerate.size() << "\n"
              << "  obsolete:    " << plan.obsolete.size() << "\n";

    if (options.output_path) {
        std::ofstream out(*options.output_path);
        if (!out) throw Error("cannot write output file: " + *options.output_path);
        driver::save_suite(out, plan.still_valid);
        std::cout << "wrote the still-valid suite to " << *options.output_path
                  << "\n";
    }
    return 0;
}

/// The registered target named on the command line, or nullptr after a
/// usage message.  A campaign or dispatch over an assembly product says
/// --assembly, and a single-class target rejects the flag: the report
/// headers look alike and a silent mixup would invalidate the
/// interface-vs-assembly comparison.  Commands that pair one class's
/// TFM with its mutants (kill, fuzz, run, shrink) pass the
/// `single_class` activity they perform, which an assembly target
/// rejects.
const serve::BuiltinTarget* command_target(const std::string& command,
                                           const Options& options,
                                           const char* single_class = nullptr) {
    std::string error;
    const serve::BuiltinTarget* target =
        serve::resolve_builtin_target(options.tspec_path, &error);
    if (target != nullptr && target->assembly && single_class != nullptr) {
        error = "'" + options.tspec_path + "' is an assembly product; " +
                single_class + " runs on single-class components only";
    } else if (target != nullptr && target->assembly != options.assembly) {
        error = "'" + options.tspec_path +
                (target->assembly ? "' is an assembly product; pass --assembly"
                                  : "' is a single-class component; drop --assembly");
    } else if (target != nullptr) {
        return target;
    }
    std::cerr << "concat " << command << ": " << error << "\n";
    return nullptr;
}

/// The campaign the flags describe: the Hello fields of a dispatch,
/// and the whole identity of a `concat campaign` or `concat kill` run.
serve::BuiltinCampaignConfig campaign_config(const Options& options) {
    serve::BuiltinCampaignConfig config;
    config.component = options.tspec_path;
    config.generator = options.generator;
    config.probe = options.probe;
    config.model = options.model;
    config.prune = options.prune;
    return config;
}

/// The campaign report, after the fast tier's pair counters on stderr:
/// scheduling-dependent numbers stay out of the report, so it is
/// byte-identical for any --jobs, --isolate or dispatch fleet.
int emit_campaign_report(const Options& options, const driver::TestSuite& suite,
                         const campaign::CampaignResult& result) {
    if (result.stats.pruned) {
        std::cerr << "prune stats: executed_pairs=" << result.stats.executed_pairs
                  << " pruned_pairs=" << result.stats.pruned_pairs
                  << " memoized_pairs=" << result.stats.memoized_pairs
                  << " memoized_calls=" << result.stats.memoized_calls << "\n";
    }
    std::ostringstream report;
    mutation::render_campaign_report(report, result.run, suite.class_name,
                                     suite.size(), options.generator.seed);
    return emit(options, report.str());
}

/// open_campaign_inputs over the flags, or nullopt after its message.
std::optional<serve::CampaignInputs> open_inputs(const std::string& command,
                                                 const Options& options) {
    std::string error;
    std::optional<serve::CampaignInputs> inputs =
        serve::open_campaign_inputs(campaign_config(options), &error, options.obs);
    if (!inputs) std::cerr << "concat " << command << ": " << error << "\n";
    return inputs;
}

// `concat campaign <component>`: run an interface-mutation campaign
// over a registered target — the built-in MFC components (coblist,
// sortable), the intraclass wallet, or the shop and audited-wallet
// assembly products (--assembly) — sharded across --jobs workers.  The report (stdout or
// -o) lists one line per mutant in enumeration order plus the Table 2/3
// aggregation — byte-identical for any --jobs value, tracing on or off;
// scheduling-dependent detail (worker ids, wall times, queue depths)
// goes to the --telemetry-out JSONL stream, spans to --trace-out, and
// timing stats to stderr.
int cmd_campaign(const Options& options) {
    if (command_target("campaign", options) == nullptr) return 2;
    const auto inputs = open_inputs("campaign", options);
    if (!inputs) return 2;

    campaign::CampaignOptions campaign_options = inputs->options;
    campaign_options.jobs = options.jobs;
    if (options.store_path) campaign_options.store_path = *options.store_path;
    if (options.telemetry_path) {
        campaign_options.telemetry_path = *options.telemetry_path;
    }
    if (options.shrink_corpus) {
        campaign_options.shrink_corpus_dir = *options.shrink_corpus;
        campaign_options.max_shrink_steps = options.max_shrink_steps;
        campaign_options.spec = &inputs->component().spec();
        // Null for targets without pointer-typed parameters (the shop
        // assembly): persist_entry then skips recompletion on replay.
        campaign_options.completions = inputs->holder.completions;
    }
    if (options.isolate) {
        campaign_options.isolate = true;
        campaign_options.sandbox.timeout_ms = options.timeout_ms;
        campaign_options.sandbox.rlimit_as_mb = options.rlimit_as_mb;
    }

    const campaign::CampaignScheduler scheduler(inputs->component().registry(),
                                                campaign_options);
    const auto result =
        scheduler.run(inputs->suite, inputs->mutants, inputs->probe_suite());
    std::cerr << "campaign stats: campaign=" << result.fingerprint
              << " workers=" << result.stats.workers
              << " executed=" << result.stats.executed
              << " resumed=" << result.stats.resumed
              << " steals=" << result.stats.steals
              << " respawns=" << result.stats.respawns
              << " shrunk=" << result.stats.shrunk
              << " wall_ms=" << result.stats.wall_ms << "\n";
    return emit_campaign_report(options, inputs->suite, result);
}

// `concat kill <component> --alive --resume FILE`: synthesize killers
// for the surviving mutants of a finished campaign (stc::kill).  The
// store is matched against the re-derived campaign fingerprint — the
// same options must be passed here as to the campaign run — and raised
// fates are written back so `concat campaign --resume` and `concat
// stats` reflect the new score.  The report is a pure function of
// (component, store, seed, budget): byte-identical across --jobs.
int cmd_kill(const Options& options) {
    if (command_target("kill", options, "killer synthesis") == nullptr) return 2;
    if (!options.alive) {
        std::cerr << "concat kill: pass --alive (the pass targets the "
                     "store's surviving mutants)\n";
        return 2;
    }
    if (!options.store_path) {
        std::cerr << "concat kill: --resume FILE is required (the finished "
                     "campaign's result store)\n";
        return 2;
    }

    // Re-derive the campaign identity through the opener `concat
    // campaign` uses — a mismatch means the store answers a different
    // campaign's question and must not be "raised".
    const auto inputs = open_inputs("kill", options);
    if (!inputs) return 2;
    const std::string& class_name = inputs->suite.class_name;
    const std::string fingerprint = inputs->fingerprint();

    std::string store_error;
    auto peek = campaign::peek_store(*options.store_path, &store_error);
    if (!peek) {
        std::cerr << "concat kill: " << store_error << "\n";
        return 2;
    }
    if (peek->fingerprint != fingerprint) {
        std::cerr << "concat kill: result store '" << *options.store_path
                  << "' belongs to a different campaign (store header "
                  << peek->fingerprint << ", expected " << fingerprint
                  << "); pass the same options as the campaign run\n";
        return 2;
    }

    std::size_t survivors = 0;
    for (const auto& record : peek->records) {
        if (record.fate == "alive") ++survivors;
    }
    if (survivors == 0) {
        return emit(options, "kill: " + class_name +
                                 ": nothing to kill (no surviving mutants in " +
                                 *options.store_path + ")\n");
    }

    kill::KillContext context;
    context.spec = &inputs->component().spec();
    context.registry = &inputs->component().registry();
    context.completions = inputs->holder.completions;
    context.mutants = &inputs->mutants;

    kill::KillOptions kill_options;
    kill_options.seed = options.generator.seed;
    kill_options.jobs = options.jobs;
    if (options.corpus_dir) kill_options.corpus_dir = *options.corpus_dir;
    kill_options.max_shrink_steps = options.max_shrink_steps;
    kill_options.obs = options.obs;
    kill_options.search.seed = options.generator.seed;
    kill_options.search.budget_states = options.budget_states;
    kill_options.search.max_depth = options.max_depth;
    kill_options.search.runner.obs = options.obs;
    kill_options.search.runner.model = inputs->options.engine.runner.model;
    kill_options.search.obs = options.obs;
    if (options.telemetry_path) {
        kill_options.telemetry = campaign::TelemetrySink::to_file(
            *options.telemetry_path, obs::JsonlSink::OpenMode::Truncate);
    }

    const kill::KillRun run =
        kill::kill_survivors(context, peek->records, kill_options);
    campaign::rewrite_store(*options.store_path, fingerprint, peek->records);

    std::ostringstream report;
    kill::render_kill_report(report, run, class_name, kill_options);

    // Search-effort numbers go to stderr like campaign timing stats:
    // they are deterministic, but they are diagnostics, not results.
    std::size_t states = 0;
    std::size_t executed = 0;
    for (const auto& item : run.items) {
        states += item.stats.states_expanded;
        executed += item.stats.candidates_executed;
    }
    std::cerr << "kill stats: campaign=" << fingerprint
              << " survivors=" << run.survivors << " verified=" << run.verified
              << " states=" << states << " candidates=" << executed << "\n";

    return emit(options, report.str());
}

/// One single-class component and the runner `concat fuzz`, `run` and
/// `shrink` execute its cases with, optionally under one mutant.  Built
/// in place (the runner holds the component's registry by reference).
struct SingleClass {
    serve::BuiltinComponent holder;
    std::vector<mutation::Mutant> mutants;
    const mutation::Mutant* mutant = nullptr;  ///< active per run; null = none
    std::optional<driver::TestRunner> runner;
    const reflect::ClassBinding* binding = nullptr;

    [[nodiscard]] const core::SelfTestableComponent& component() const {
        return *holder.component;
    }
    [[nodiscard]] const std::string& class_name() const {
        return component().spec().class_name;
    }
    [[nodiscard]] driver::TestResult run_case(const driver::TestCase& tc) const {
        std::optional<mutation::MutantActivation> active;
        if (mutant != nullptr) active.emplace(*mutant);
        return runner->run_case(*binding, tc);
    }
    [[nodiscard]] driver::SuiteResult run(const driver::TestSuite& suite) const {
        std::optional<mutation::MutantActivation> active;
        if (mutant != nullptr) active.emplace(*mutant);
        return runner->run(suite);
    }
};

/// Build the named single-class component, select `mutant_id` ("" =
/// none) among its mutants — an unknown id is an error, so a typo
/// cannot silently run the pristine component — and build the runner.
/// With `model`, the runner carries the class's reference model and
/// promotes divergence on an otherwise-passing case to a
/// model-divergence verdict: verdicts are the signal of all three
/// commands.  nullptr after a usage message (exit 2).
std::unique_ptr<SingleClass> open_single_class(const std::string& command,
                                               const char* activity,
                                               const Options& options,
                                               const std::string& mutant_id,
                                               bool model) {
    const serve::BuiltinTarget* target = command_target(command, options, activity);
    if (target == nullptr) return nullptr;
    auto out = std::make_unique<SingleClass>();
    out->holder = target->make_component();
    out->mutants = target->mutants();
    if (!mutant_id.empty()) {
        for (const auto& m : out->mutants) {
            if (m.id() != mutant_id) continue;
            out->mutant = &m;
            break;
        }
        if (out->mutant == nullptr) {
            std::cerr << "concat " << command << ": unknown mutant '"
                      << mutant_id << "'\n";
            return nullptr;
        }
    }
    driver::RunnerOptions runner_options;
    runner_options.obs = options.obs;
    if (model) {
        std::string error;
        runner_options.model = serve::resolve_model(out->class_name(), &error);
        if (runner_options.model == nullptr) {
            std::cerr << "concat " << command << ": " << error << "\n";
            return nullptr;
        }
        runner_options.promote_divergence = true;
    }
    const reflect::Registry& registry = out->component().registry();
    out->runner.emplace(registry, runner_options);
    out->binding = &registry.at(out->class_name());
    return out;
}

// `concat fuzz <component>`: coverage-guided fuzzing of a registered
// single-class component (optionally with one mutant active, for seeded
// faults).  Findings are minimized by the shrinker and — with --corpus —
// persisted as replayable reproducers.  The stdout report is a pure
// function of (component, seed, iters, mutant): corpus filenames are
// printed without their directory so two same-seed runs into different
// corpus directories still byte-match (the CI seed-stability gate).
int cmd_fuzz(const Options& options) {
    // Fuzzing wants divergence as a first-class signal: promotion turns
    // a clean-run divergence into Verdict::ModelDivergence, so the
    // coverage map treats it as a novel verdict kind, findings dedupe by
    // (model-divergence, method), and the shrinker minimizes while
    // preserving the divergence.
    const auto harness = open_single_class(
        "fuzz", "fuzzing", options, options.mutant_id.value_or(""), options.model);
    if (!harness) return 2;
    const core::SelfTestableComponent& component = harness->component();
    const driver::CompletionRegistry* completions = harness->holder.completions;
    const std::string& class_name = harness->class_name();

    // --isolate: replay each case on a one-worker sandbox pool that
    // lives for the whole run (its worker forks at the first case and
    // inherits the runner and completions built above).  The case
    // travels as a one-case concat-suite (the corpus transport:
    // serialize, reload, recomplete); the reply is the encoded result.
    // A worker death surfaces as a Crash verdict whose failed_method is
    // the termination kind, so a genuine SIGSEGV/hang/OOM dedupes as a
    // finding ("crash|crash-signal:11") instead of ending the run.
    std::optional<sandbox::WorkerPool> isolated;
    if (options.isolate) {
        const sandbox::Job job = [&](const std::string& payload) -> std::string {
            std::istringstream in(payload);
            driver::TestSuite one = driver::load_suite(in);
            if (completions != nullptr) {
                driver::recomplete_suite(one, *completions, one.seed);
            }
            if (one.cases.empty()) throw Error("sandbox: empty case payload");
            return sandbox::encode_result(harness->run_case(one.cases.front()));
        };
        sandbox::PoolOptions pool_options;
        pool_options.limits.timeout_ms = options.timeout_ms;
        pool_options.limits.rlimit_as_mb = options.rlimit_as_mb;
        isolated.emplace(job, std::move(pool_options));
    }

    const fuzz::CaseRunner case_runner =
        [&](const driver::TestCase& tc) -> driver::TestResult {
        if (!isolated) return harness->run_case(tc);
        driver::TestSuite one;
        one.class_name = class_name;
        one.seed = options.generator.seed;
        one.cases.push_back(tc);
        std::ostringstream out;
        driver::save_suite(out, one);
        sandbox::TaskResult task;
        isolated->run({out.str()}, [&](std::size_t, sandbox::TaskResult r) {
            task = std::move(r);
        });
        if (task.ok()) {
            if (auto decoded = sandbox::decode_result(task.payload)) {
                return *decoded;
            }
        }
        driver::TestResult result;
        result.case_id = tc.id;
        result.verdict = driver::Verdict::Crash;
        result.failed_method = task.ok() ? "worker-exit:-3" : task.outcome();
        result.message =
            "sandbox: worker terminated (" + result.failed_method + ")";
        return result;
    };

    fuzz::FuzzOptions fuzz_options;
    fuzz_options.seed = options.generator.seed;
    fuzz_options.iterations = options.iters;
    fuzz_options.generator = options.generator;
    fuzz_options.max_shrink_steps = options.max_shrink_steps;
    fuzz_options.mutant_id = options.mutant_id.value_or("");
    fuzz_options.obs = options.obs;

    fuzz::Fuzzer fuzzer(component.spec(), fuzz_options);
    fuzzer.completions(completions).case_runner(case_runner);
    const fuzz::FuzzResult result = fuzzer.run();

    // Persist reproducers before rendering so the report can carry each
    // finding's corpus filename.
    int rc = 0;
    std::vector<std::string> finding_lines;
    for (const auto& finding : result.findings) {
        std::ostringstream line;
        line << finding.key() << "  iter " << finding.iteration << "  "
             << finding.reproducer.calls.size() << " call(s)  shrink "
             << finding.shrink.steps << " step(s)";
        if (options.corpus_dir) {
            const std::uint64_t entry_seed = campaign::derive_item_seed(
                fuzz_options.seed, fuzz_options.mutant_id, finding.key());
            const auto outcome =
                fuzz::persist_entry(*options.corpus_dir,
                                    finding.to_corpus_entry(class_name),
                                    completions, case_runner, entry_seed);
            if (outcome.reproducible) {
                const auto slash = outcome.path.find_last_of('/');
                line << "  -> "
                     << (slash == std::string::npos ? outcome.path
                                                    : outcome.path.substr(slash + 1));
            } else {
                line << "  [NOT-REPRODUCIBLE]";
                rc = 1;
            }
        }
        finding_lines.push_back(line.str());
    }

    if (options.telemetry_path) {
        campaign::TelemetrySink sink =
            campaign::TelemetrySink::to_file(*options.telemetry_path);
        sink.emit(obs::JsonObject{}
                      .set("event", "fuzz-start")
                      .set("class", class_name)
                      .set("seed", static_cast<std::uint64_t>(fuzz_options.seed))
                      .set("iters", static_cast<std::uint64_t>(options.iters))
                      .set("mutant", fuzz_options.mutant_id));
        for (const auto& finding : result.findings) {
            sink.emit(
                obs::JsonObject{}
                    .set("event", "fuzz-finding")
                    .set("key", finding.key())
                    .set("verdict", driver::to_string(finding.verdict))
                    .set("method", finding.failed_method)
                    .set("iteration", static_cast<std::uint64_t>(finding.iteration))
                    .set("shrink_steps",
                         static_cast<std::uint64_t>(finding.shrink.steps))
                    .set("calls", static_cast<std::uint64_t>(
                                      finding.reproducer.calls.size())));
        }
        // One event per verdict kind — zero counts included, so a kind
        // that never fired (contract-not-enforced, setup-error) is
        // visibly zero in `concat stats`, not absent.
        for (const driver::Verdict v : driver::kAllVerdicts) {
            const std::string name = driver::to_string(v);
            const auto it = result.stats.verdict_counts.find(name);
            const std::uint64_t count =
                it == result.stats.verdict_counts.end() ? 0 : it->second;
            sink.emit(obs::JsonObject{}
                          .set("event", "fuzz-verdict")
                          .set("verdict", name)
                          .set("count", count));
        }
        obs::JsonObject end;
        end.set("event", "fuzz-end")
            .set("iterations",
                 static_cast<std::uint64_t>(result.stats.iterations))
            .set("executions",
                 static_cast<std::uint64_t>(result.stats.executions))
            .set("interesting",
                 static_cast<std::uint64_t>(result.stats.interesting))
            .set("population",
                 static_cast<std::uint64_t>(result.stats.population))
            .set("nodes",
                 static_cast<std::uint64_t>(result.stats.nodes_covered))
            .set("edges",
                 static_cast<std::uint64_t>(result.stats.edges_covered))
            .set("findings", static_cast<std::uint64_t>(result.findings.size()));
        if (isolated) {
            const sandbox::PoolStats& sandbox_stats = isolated->stats();
            end.set("sandbox_spawns",
                    static_cast<std::uint64_t>(sandbox_stats.spawned))
                .set("sandbox_respawns",
                     static_cast<std::uint64_t>(sandbox_stats.respawned))
                .set("sandbox_kills",
                     static_cast<std::uint64_t>(sandbox_stats.kills));
        }
        sink.emit(end);
    }

    std::ostringstream report;
    report << "fuzz: " << class_name << ", seed " << fuzz_options.seed << ", "
           << options.iters << " iteration(s)";
    if (harness->mutant) report << ", mutant " << harness->mutant->id();
    report << "\n" << result.stats.render();
    if (finding_lines.empty()) {
        report << "no findings\n";
    } else {
        report << "findings:\n";
        for (const auto& line : finding_lines) report << "  " << line << "\n";
    }
    const int emit_rc = emit(options, report.str());
    return rc != 0 ? rc : emit_rc;
}

// `concat run <component>`: one plain execution of the generated suite
// of a registered single-class component — the smallest way to watch
// the component behave.  With
// --mutant the run happens under that seeded fault; with --model the
// lockstep reference model runs alongside and a divergence on an
// otherwise-passing case is promoted to a model-divergence verdict with
// the first divergent call in the message.  Exit 0 iff every case
// passed, so `concat run <c> --model` doubles as a conformance gate and
// `concat run <c> --mutant M --model` as a single-mutant demonstrator.
int cmd_run(const Options& options) {
    const auto harness = open_single_class(
        "run", "a suite run", options, options.mutant_id.value_or(""), options.model);
    if (!harness) return 2;
    const std::string& class_name = harness->class_name();
    const driver::TestSuite suite =
        harness->component().generate_tests(options.generator);
    const driver::SuiteResult result = harness->run(suite);

    std::ostringstream report;
    report << "run: " << class_name << ", " << suite.size() << " case(s), seed "
           << options.generator.seed;
    if (harness->mutant) report << ", mutant " << harness->mutant->id();
    if (options.model) report << ", model oracle";
    report << "\n";

    std::size_t failures = 0;
    for (const auto& r : result.results) {
        report << "  " << r.case_id << "  " << driver::to_string(r.verdict);
        if (r.verdict != driver::Verdict::Pass) {
            ++failures;
            if (!r.failed_method.empty()) {
                report << "  [" << r.failed_method << "]";
            }
            if (!r.message.empty()) report << "  " << r.message;
        }
        report << "\n";
    }
    report << "verdicts:";
    for (const driver::Verdict v : driver::kAllVerdicts) {
        report << "  " << driver::to_string(v) << "=" << result.count(v);
    }
    report << "\n";

    const int emit_rc = emit(options, report.str());
    if (failures != 0) return 1;
    return emit_rc;
}

// `concat shrink <component> --case FILE`: reload one corpus
// entry, verify it still replays to its recorded verdict, re-shrink it
// under the given budget, and write the minimized entry back (--corpus
// DIR for the canonical filename, else -o/stdout).  Exit 1 when the
// replay no longer matches — a stale entry is a signal, not noise.
int cmd_shrink(const Options& options) {
    if (!options.case_path) {
        std::cerr << "concat shrink: --case is required\n";
        return 2;
    }
    fuzz::CorpusEntry entry = fuzz::load_entry_file(*options.case_path);
    // The corpus replay rule (docs/FORMATS.md §9): a model-divergence
    // entry replays with its class's model attached and divergence
    // promoted, any other entry with neither.  --mutant overrides the
    // recorded mutant (e.g. replaying a component fault under a
    // candidate fix's mutant id).
    const auto harness = open_single_class(
        "shrink", "shrinking", options, options.mutant_id.value_or(entry.mutant_id),
        entry.verdict == driver::Verdict::ModelDivergence);
    if (!harness) return 2;
    const core::SelfTestableComponent& component = harness->component();
    const driver::CompletionRegistry* completions = harness->holder.completions;
    const std::string& class_name = harness->class_name();
    if (entry.suite.class_name != class_name) {
        std::cerr << "concat shrink: entry is for class '"
                  << entry.suite.class_name << "', component is '" << class_name
                  << "'\n";
        return 2;
    }
    if (completions != nullptr) {
        driver::recomplete_suite(entry.suite, *completions, entry.suite.seed);
    }
    const fuzz::CaseRunner case_runner = [&](const driver::TestCase& tc) {
        return harness->run_case(tc);
    };

    const driver::TestResult observed = case_runner(entry.reproducer());
    if (observed.verdict != entry.verdict) {
        std::cerr << "concat shrink: replay verdict "
                  << driver::to_string(observed.verdict)
                  << " does not match recorded "
                  << driver::to_string(entry.verdict) << "\n";
        return 1;
    }

    const tfm::Graph graph = component.spec().build_tfm();
    fuzz::ShrinkOptions shrink_options;
    shrink_options.max_steps = options.max_shrink_steps;
    shrink_options.obs = options.obs;
    const fuzz::Predicate still_fails = [&](const driver::TestCase& tc) {
        return case_runner(tc).verdict == entry.verdict;
    };
    const fuzz::ShrinkResult shrunk = fuzz::shrink_case(
        component.spec(), graph, entry.reproducer(), still_fails, shrink_options);

    std::cerr << "shrink: " << class_name << "  "
              << entry.reproducer().calls.size() << " -> "
              << shrunk.minimized.calls.size() << " call(s), " << shrunk.steps
              << " step(s), " << shrunk.sequence_removals << " removal(s), "
              << shrunk.value_reductions << " value reduction(s)\n";

    fuzz::CorpusEntry minimized = entry;
    minimized.suite.cases = {shrunk.minimized};
    if (options.corpus_dir) {
        const auto outcome =
            fuzz::persist_entry(*options.corpus_dir, minimized, completions,
                                case_runner, entry.suite.seed);
        if (!outcome.reproducible) {
            std::cerr << "concat shrink: minimized entry did not replay after "
                         "persistence round-trip\n";
            return 1;
        }
        std::cout << "wrote " << outcome.path << "\n";
        // Corpus filenames are content-hashed, so a shrink that changed
        // the case lands under a new name; drop the superseded input
        // entry rather than accumulating duplicate reproducers for the
        // same finding.
        std::error_code ec;
        const bool same =
            std::filesystem::equivalent(*options.case_path, outcome.path, ec);
        if (!ec && !same) {
            if (std::filesystem::remove(*options.case_path, ec) && !ec) {
                std::cerr << "removed superseded " << *options.case_path << "\n";
            }
        }
        return 0;
    }
    std::ostringstream out;
    fuzz::save_entry(out, minimized);
    return emit(options, out.str());
}

// `concat stats TELEMETRY.jsonl [MORE.jsonl...]`: offline aggregation
// of campaign telemetry stream(s) (docs/FORMATS.md §5) into the summary
// a profiler wants first: verdict/fate breakdown, kill-reason
// histogram, the slowest items, and per-worker utilization.  Several
// files — e.g. a dispatch coordinator's stream plus each worker
// daemon's — aggregate into one summary, items deduplicated by index.
int cmd_stats(const Options& options) {
    if (options.follow) {
        // Live view over ONE growing file: poll its tail, re-render a
        // compact snapshot after each batch of new lines, stop once the
        // stream's campaign-end arrives (or on Ctrl-C, like tail -f).
        // The torn-tail holdback in TelemetryTail makes a writer caught
        // mid-line invisible here.
        if (!options.extra_inputs.empty()) {
            std::cerr << "concat stats: --follow takes exactly one file\n";
            return 2;
        }
        using FollowClock = std::chrono::steady_clock;
        const auto t0 = FollowClock::now();
        obs::TelemetryTail tail(options.tspec_path);
        obs::TelemetryStats stats;
        auto render = [&] {
            stats.sort_items();
            const double elapsed_s =
                std::chrono::duration<double>(FollowClock::now() - t0).count();
            stats.render_follow(std::cout, elapsed_s);
            std::cout << std::flush;
        };
        for (;;) {
            const std::size_t fresh = tail.poll(stats);
            if (fresh > 0) render();
            if (stats.have_summary) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        return 0;
    }
    std::vector<std::string> paths;
    paths.push_back(options.tspec_path);
    paths.insert(paths.end(), options.extra_inputs.begin(),
                 options.extra_inputs.end());
    const obs::TelemetryStats stats = obs::TelemetryStats::from_files(paths);
    std::ostringstream out;
    if (options.json_stats) {
        stats.write_json(out, options.top);
    } else {
        stats.render(out, options.top);
    }
    return emit(options, out.str());
}

// `concat serve [--listen PORT] [--once]`: the worker daemon of the
// campaign service (docs/FORMATS.md §10).  Binds, announces the bound
// port on stdout (so scripts using --listen 0 can read the ephemeral
// choice before connecting), then serves coordinator sessions until
// stopped — or exactly one under --once, the CI-gate shape.  The daemon
// carries no campaign flags: the coordinator's Hello handshake is the
// single source of campaign configuration, cross-checked by fingerprint.
int cmd_serve(const Options& options) {
    std::optional<campaign::TelemetrySink> sink;
    if (options.telemetry_path) {
        sink = campaign::TelemetrySink::to_file(*options.telemetry_path);
    }
    serve::ServeOptions serve_options;
    serve_options.port = static_cast<std::uint16_t>(options.listen_port);
    serve_options.bind_host = options.bind_host;
    serve_options.once = options.once;
    serve_options.obs = options.obs;
    if (sink) {
        serve_options.telemetry = [&sink](const obs::JsonObject& event) {
            sink->emit(event);
        };
    }
    serve::WorkerDaemon daemon(serve::builtin_session_factory(),
                               std::move(serve_options));
    const std::uint16_t port = daemon.bind();
    std::cout << "listening on port " << port << "\n" << std::flush;
    daemon.serve();
    std::cerr << "serve stats: sessions=" << daemon.sessions() << "\n";
    return 0;
}

// `concat dispatch <coblist|sortable> --workers host:port[,...]`: the
// coordinator of the campaign service.  Builds the same campaign a
// local `concat campaign` would (suite, mutants, golden baselines,
// fingerprint), shards the work list deterministically across the
// daemons, merges their Result streams into per-item slots, and renders
// the report through the same renderer — so the stdout report is
// byte-identical to the single-process run for any worker count, any
// completion order, and any mid-run worker death (survivors re-execute
// the lost items to identical fates).  --resume shares the campaign
// store format: a dispatch can resume a local run and vice versa.
int cmd_dispatch(const Options& options) {
    if (!options.workers) {
        std::cerr << "concat dispatch: --workers is required\n";
        return 2;
    }
    if (command_target("dispatch", options) == nullptr) return 2;
    const serve::BuiltinCampaignConfig config = campaign_config(options);
    std::string error;
    const auto host = serve::BuiltinCampaign::open(config, &error, options.obs);
    if (!host) {
        std::cerr << "concat dispatch: " << error << "\n";
        return 2;
    }
    const std::string& fingerprint = host->fingerprint();
    serve::DispatchOptions dispatch_options;
    dispatch_options.workers = serve::parse_endpoints(*options.workers);

    std::optional<campaign::TelemetrySink> sink;
    if (options.telemetry_path) {
        sink = campaign::TelemetrySink::to_file(*options.telemetry_path);
    }
    // --progress folds every telemetry event — the coordinator's own
    // and the workers' streamed copies — into a live TelemetryStats and
    // re-renders a compact snapshot to stderr at the telemetry
    // interval.  stderr, so the stdout report stays byte-identical to
    // the local run.
    obs::TelemetryStats progress_stats;
    const auto progress_t0 = std::chrono::steady_clock::now();
    auto last_progress = progress_t0;
    auto render_progress = [&] {
        progress_stats.sort_items();
        progress_stats.render_follow(
            std::cerr, std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - progress_t0)
                           .count());
    };
    auto emit_event = [&](const obs::JsonObject& event) {
        if (sink) sink->emit(event);
        if (!options.progress) return;
        progress_stats.absorb_event(event);
        const auto now = std::chrono::steady_clock::now();
        if (now - last_progress < std::chrono::milliseconds(std::max<
                std::uint64_t>(options.telemetry_interval_ms, 1))) {
            return;
        }
        last_progress = now;
        render_progress();
    };

    dispatch_options.hello = serve::make_hello(config, fingerprint);
    dispatch_options.expected_fingerprint = fingerprint;
    dispatch_options.keepalive_ms = static_cast<int>(options.keepalive_ms);
    dispatch_options.dead_after_ms = static_cast<int>(options.dead_after_ms);
    dispatch_options.obs = options.obs;
    // Event streaming is negotiated whenever the coordinator has
    // somewhere to put the workers' events: a --telemetry-out sink (the
    // fleet-wide JSONL) or a --progress view.  Span streaming rides on
    // --trace-out alone (the Hello "trace" field, set by the
    // coordinator when its tracer is enabled).
    dispatch_options.stream_telemetry = sink.has_value() || options.progress;
    dispatch_options.telemetry_interval_ms =
        static_cast<int>(options.telemetry_interval_ms);
    if (sink || options.progress) {
        dispatch_options.telemetry = emit_event;
    }

    serve::DispatchStats stats;
    const campaign::CampaignResult result = host->dispatch(
        std::move(dispatch_options), options.store_path.value_or(""), &stats);
    if (options.progress) render_progress();  // the closing snapshot

    std::cerr << "dispatch stats: campaign=" << fingerprint
              << " workers=" << stats.workers_connected << "/" << stats.workers
              << " executed=" << stats.executed
              << " resumed=" << result.stats.resumed
              << " redispatched=" << stats.redispatched
              << " stolen=" << stats.stolen
              << " disconnects=" << stats.disconnects
              << " wall_ms=" << stats.wall_ms << "\n";
    return emit_campaign_report(options, host->suite(), result);
}

/// Write the --trace-out / --metrics-out artifacts collected during the
/// command.  Failures are reported but only turn a successful run into
/// a failure (a failed command keeps its own exit code).
int flush_observability(const Options& options) {
    int rc = 0;
    if (options.trace_path) {
        std::ofstream out(*options.trace_path);
        if (out) {
            options.obs.tracer.write_chrome_trace(out);
        } else {
            std::cerr << "concat: cannot write trace file: " << *options.trace_path
                      << "\n";
            rc = 1;
        }
    }
    if (options.metrics_path) {
        std::ofstream out(*options.metrics_path);
        if (out) {
            const std::string& path = *options.metrics_path;
            const bool json = path.size() >= 5 &&
                              path.compare(path.size() - 5, 5, ".json") == 0;
            if (json) {
                options.obs.metrics.write_json(out);
            } else {
                options.obs.metrics.write_text(out);
            }
        } else {
            std::cerr << "concat: cannot write metrics file: "
                      << *options.metrics_path << "\n";
            rc = 1;
        }
    }
    return rc;
}

int dispatch(const Options& options) {
    // Campaign, fuzz, run, shrink and stats do not read a t-spec file;
    // assemble reads an *assembly* file and parses it itself.
    if (options.command == "campaign") return cmd_campaign(options);
    if (options.command == "kill") return cmd_kill(options);
    if (options.command == "assemble") return cmd_assemble(options);
    if (options.command == "fuzz") return cmd_fuzz(options);
    if (options.command == "run") return cmd_run(options);
    if (options.command == "shrink") return cmd_shrink(options);
    if (options.command == "stats") return cmd_stats(options);
    if (options.command == "serve") return cmd_serve(options);
    if (options.command == "dispatch") return cmd_dispatch(options);

    const auto spec = tspec::parse_tspec(read_file(options.tspec_path));

    if (options.command == "validate") return cmd_validate(options, spec);
    if (options.command == "describe") return cmd_describe(options, spec);
    if (options.command == "print") {
        return emit(options, tspec::print_tspec(spec));
    }
    if (options.command == "dot") {
        spec.ensure_valid();
        return emit(options, spec.build_tfm().to_dot());
    }
    if (options.command == "transactions") return cmd_transactions(options, spec);
    if (options.command == "coverage") return cmd_coverage(options, spec);
    if (options.command == "suite") return cmd_suite(options, spec);
    if (options.command == "gen") return cmd_gen(options, spec);
    if (options.command == "replan") return cmd_replan(options, spec);

    std::cerr << "concat: unknown command '" << options.command << "'\n";
    return usage(std::cerr);
}

}  // namespace

int main(int argc, char** argv) {
    // The example targets (wallet, shop, audited-wallet) join the
    // pre-registered mfc ones before any command resolves a component
    // name — including a serve daemon's handshake-time lookup.
    stc::examples::register_example_targets();

    auto options = parse_args(argc, argv);
    if (!options) return usage(std::cerr);

    // The observability context exists exactly when an output was
    // requested; otherwise every instrument in the pipeline stays on
    // its no-op fast path.
    if (options->trace_path) options->obs.tracer = obs::Tracer::make();
    if (options->metrics_path) options->obs.metrics = obs::Metrics::make();
    options->generator.obs = options->obs;

    int rc;
    try {
        rc = dispatch(*options);
    } catch (const stc::Error& e) {
        std::cerr << "concat: " << e.what() << "\n";
        rc = 1;
    }
    const int flush_rc = flush_observability(*options);
    return rc == 0 ? flush_rc : rc;
}
