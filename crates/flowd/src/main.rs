//! The `flowd` binary: parse options, start the daemon, wait for drain.
//!
//! ```text
//! flowd --addr 127.0.0.1:7171 --workers 4 --store qor-store
//! ```
//!
//! `--store` names the base of the checksummed, segmented QoR store: its
//! segment files `qor-store.NNNNNN.seg` are the whole store.
//!
//! The daemon runs until `POST /shutdown` arrives, then drains gracefully.
//! Exit codes: `0` clean drain, `1` usage error (an option that does not
//! parse), `2` runtime failure (the store does not open, the address does
//! not bind, or the store flush on drain failed).

use std::path::PathBuf;

use flowc::args::{Args, CliError};
use flowd::{Server, ServerConfig};

const USAGE: &str = "flowd — persistent synthesis service over HTTP/1.1

USAGE:
    flowd [OPTIONS]

OPTIONS:
    --addr <host:port>    bind address        [default: 127.0.0.1:7171]
    --workers <n>         worker threads      [default: min(cores, 8)]
    --queue <n>           waiting-connection cap before 503 [default: 64]
    --timeout-ms <n>      max queue wait per connection     [default: 5000]
    --deadline-ms <n>     per-request evaluation deadline (504 past it;
                          requests may lower it via ?deadline_ms=)
                                                            [default: 10000]
    --idle-ms <n>         keep-alive idle timeout           [default: 2000]
    --store <path>        persistent QoR store (checksummed segmented log;
                          a plain JSONL store from before v2 is refused)
    --segment-bytes <n>   rotate the live store segment at this size
                                                            [default: 8388608]
    --probe-ms <n>        degraded-store recovery probe period [default: 500]
    --verify              verify every evaluated flow by random simulation
    --cache-nodes <n>     process-wide budget for resident intermediate
                          AIGs, in total AIG nodes (LRU)  [default: 4000000]

ENDPOINTS:
    POST /run       evaluate a flow on the design in the request body; query
                    flow=<preset|script> or random=<seed>, format=aag|aig|blif,
                    export=aag|blif, timing=1, verify=1 (rerun the flow and
                    check it by random simulation; 500 on a mismatch) --
                    `flowc run`'s options under the same names
    GET  /healthz   liveness + store_mode (ok | degraded)
    GET  /stats     counters, queue depth, store + cache summaries
    POST /shutdown  graceful drain (fsyncs the store before exit)
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        print!("{USAGE}");
        return;
    }
    match parse_config(Args::new(argv)) {
        Ok(config) => {
            let server = match Server::start(config) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("flowd: cannot start: {e}");
                    std::process::exit(2);
                }
            };
            eprintln!("flowd: listening on {}", server.addr());
            if let Err(e) = server.join() {
                eprintln!("flowd: store flush on drain failed: {e}");
                std::process::exit(2);
            }
            eprintln!("flowd: drained");
        }
        Err(message) => {
            eprintln!("flowd: {message}\n");
            eprint!("{USAGE}");
            std::process::exit(1);
        }
    }
}

fn parse_config(mut args: Args) -> Result<ServerConfig, CliError> {
    let mut c = ServerConfig {
        addr: "127.0.0.1:7171".to_string(),
        ..ServerConfig::default()
    };
    c.addr = args.take_value("addr")?.unwrap_or(c.addr);
    c.workers = args.take_parsed("workers")?.unwrap_or(c.workers);
    c.queue_capacity = args.take_parsed("queue")?.unwrap_or(c.queue_capacity);
    c.request_timeout_ms = args
        .take_parsed("timeout-ms")?
        .unwrap_or(c.request_timeout_ms);
    c.deadline_ms = args
        .take_parsed("deadline-ms")?
        .unwrap_or(c.deadline_ms)
        .max(1);
    c.keep_alive_idle_ms = args.take_parsed("idle-ms")?.unwrap_or(c.keep_alive_idle_ms);
    c.store_probe_ms = args
        .take_parsed("probe-ms")?
        .unwrap_or(c.store_probe_ms)
        .max(1);
    let engine = &mut c.engine;
    engine.store_path = args.take_value("store")?.map(PathBuf::from);
    let segment_bytes = engine.store_options.segment_max_bytes;
    engine.store_options.segment_max_bytes = args
        .take_parsed("segment-bytes")?
        .unwrap_or(segment_bytes)
        .max(1);
    let cache_nodes = engine.cache_budget_aig_nodes;
    engine.cache_budget_aig_nodes = args.take_parsed("cache-nodes")?.unwrap_or(cache_nodes);
    engine.verify = args.take_flag("verify");
    args.finish()?;
    Ok(c)
}
