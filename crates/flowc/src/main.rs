//! # flowc — the synthesis-flow CLI driver
//!
//! The user-facing tool of the reproduction: it imports a design (binary
//! AIGER, ASCII AIGER or structural BLIF — or generates one of the paper's
//! benchmark circuits), runs a named, scripted or random synthesis flow
//! through the cache-aware [`floweval::EvalEngine`], prints QoR statistics as
//! JSON and exports the optimized netlist in any supported format.
//! `flowc reproduce` runs the paper's figures, table and ablations and
//! prints their numbers as one JSON document.
//!
//! ```text
//! flowc run --design fixtures/tiny/alu64.aag --flow resyn2 --out alu64.opt.aig
//! flowc run --design montgomery64:small --random 42 --store qor-store
//! flowc convert design.blif design.aig
//! flowc stats aes128:tiny
//! flowc export-corpus --dir fixtures/tiny --scale tiny --format aag
//! flowc presets
//! flowc reproduce --scale tiny --json reproduction.json
//! ```
//!
//! Exit codes: `0` success, `1` usage error, `2` runtime failure — picked by
//! the [`CliError`](flowc::args::CliError) variant a command returns.

use flowc::args::Args;
use flowc::commands;

const USAGE: &str = "flowc — import, optimize and export logic designs

USAGE:
    flowc <COMMAND> [OPTIONS]

COMMANDS:
    run            Evaluate one synthesis flow on a design, print QoR JSON
                     --design <path|name[:scale]>   design file (.aag/.aig/.blif)
                                                    or generated benchmark
                                                    (montgomery64, aes128, alu64;
                                                    scale tiny|small|full)
                     --flow <preset|script>         named preset or ABC-style
                                                    script (see `flowc presets`)
                     --random <seed>                random paper-space flow
                     --out <path>                   export the optimized netlist
                     --json <path>                  also write the report here
                     --store <path>                 persistent QoR store: base of
                                                    its segment files
                                                    <path>.NNNNNN.seg
                     --verify                       rerun the flow and check the
                                                    result by random simulation;
                                                    a mismatch fails (exit 2)
                     --timing                       include the per-pass timing
                                                    breakdown in the report
    submit         Run a flow on a remote flowd daemon instead of in process
                     --addr <host:port>             daemon address
                     --retries <n>                  extra attempts on 503 or
                                                    connect failure [default: 3]
                     --deadline-ms <n>              per-request evaluation
                                                    deadline (daemon answers 504
                                                    past it; not retried); the
                                                    answer is awaited for 30 s
                                                    or n ms + 5 s if longer
                     plus the `run` options (--flow/--random/--timing/--verify/
                     --out/--json), sent as /run's query; the report and the
                     exported netlist are bit-identical to a local `run`
    search         Label a flow space over designs under optional budgets,
                   print a throughput and evaluation-counter report
                     --designs <spec,spec,...>      one or more design specs
                     --random <seed> [--count <n>]  sample n distinct paper-space
                                                    flows; the first is the flow
                                                    `run --random <seed>` runs
                                                    [default count: 16]
                     --flows <file>                 one flow script per line
                     --prefix <script> [--depth <n>] expand all 6^n suffixes
                                                    of a prefix, in transform
                                                    order [default: 1]
                     --workers <n>                  evaluation threads [default: 4]
                     --max-wall-s <secs>            wall-clock budget
                     --max-evals <n>                evaluation budget
                     --store <path>                 persistent QoR store
                     --labels <path>                dump labels as JSON lines
                     --json <path>                  also write the report here
                     --verify                       verify every evaluated flow
                                                    by random simulation
    store          Maintain a persistent QoR store (checksummed segmented log;
                   a plain-JSONL store from before v2 is refused, exit 2)
                     flowc store compact <path>     drop duplicate/quarantined
                                                    records atomically
                     flowc store stats <path>       print record counts as JSON
                                                    (torn_tail/corrupt split)
                     flowc store fsck <path>        verify checksums, quarantine
                                                    damage, print a JSON report;
                                                    exits nonzero if damage was
                                                    found.  --repair also
                                                    compacts afterwards
    convert        Convert between formats: flowc convert <in> <out> [--cleanup]
    stats          Print design statistics as JSON: flowc stats <design>
    export-corpus  Write the generated benchmark corpus as fixture files
                     --dir <dir> [--scale tiny|small|full] [--format aag|aig|blif]
    presets        List the named flow presets
    reproduce      Run the paper's studies (Remark 3, Figs. 1 and 4-8, Table 2,
                   three ablations), print them as one JSON document
                     --scale tiny|small|full        [default: tiny]
                     --designs <spec,spec,...>      designs of Figs. 4, 5 and 8
                     --store <path>                 persistent QoR store
                     --json <path>                  also write the report here
    help           Show this message

EXIT CODES:
    0  success
    1  usage error: a malformed, missing or contradictory option; nothing ran
    2  runtime failure: I/O, an unreadable design, a daemon error, a failed
       verification
";

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprint!("{USAGE}");
        std::process::exit(1);
    }
    let command = argv.remove(0);
    let args = Args::new(argv);
    let result = match command.as_str() {
        "run" => commands::run(args),
        "search" => commands::search(args),
        "submit" => commands::submit(args),
        "store" => commands::store(args),
        "convert" => commands::convert(args),
        "stats" => commands::stats(args),
        "export-corpus" => commands::export_corpus(args),
        "presets" => commands::presets(args),
        "reproduce" => commands::reproduce(args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return;
        }
        other => {
            eprintln!("flowc: unknown command `{other}`\n");
            eprint!("{USAGE}");
            std::process::exit(1);
        }
    };
    if let Err(error) = result {
        eprintln!("flowc {command}: {error}");
        std::process::exit(error.exit_code());
    }
}
