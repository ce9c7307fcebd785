//! The `flowd` binary: parse options, start the daemon, wait for drain.
//!
//! ```text
//! flowd --addr 127.0.0.1:7171 --workers 4 --store qor-store
//! ```
//!
//! `--store` names the base of the checksummed, segmented QoR store
//! (`qor-store.manifest` + `qor-store.NNNNNN.seg`).
//!
//! The daemon runs until `POST /shutdown` arrives, then drains gracefully.
//! Exit codes: `0` clean drain, `1` usage error, `2` runtime failure.

use std::path::PathBuf;

use flowc::args::Args;
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
                          a legacy plain JSONL store is upgraded on open)
    --segment-bytes <n>   rotate the live store segment at this size
                                                            [default: 8388608]
    --probe-ms <n>        degraded-store recovery probe period [default: 500]
    --verify              verify every evaluated flow by random simulation
    --cache-nodes <n>     process-wide budget for resident intermediate
                          AIGs, in total AIG nodes (LRU)  [default: 4000000]

ENDPOINTS:
    POST /run       evaluate a flow on the design in the request body
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
    let mut args = Args::new(argv);
    match parse_config(&mut args).and_then(|config| {
        args.finish()?;
        Ok(config)
    }) {
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

fn parse_config(args: &mut Args) -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7171".to_string(),
        ..ServerConfig::default()
    };
    if let Some(addr) = args.take_value("addr")? {
        config.addr = addr;
    }
    if let Some(n) = args.take_value("workers")? {
        config.workers = parse_number(&n, "workers")?;
    }
    if let Some(n) = args.take_value("queue")? {
        config.queue_capacity = parse_number(&n, "queue")?;
    }
    if let Some(n) = args.take_value("timeout-ms")? {
        config.request_timeout_ms = parse_number(&n, "timeout-ms")? as u64;
    }
    if let Some(n) = args.take_value("deadline-ms")? {
        config.deadline_ms = (parse_number(&n, "deadline-ms")? as u64).max(1);
    }
    if let Some(n) = args.take_value("idle-ms")? {
        config.keep_alive_idle_ms = parse_number(&n, "idle-ms")? as u64;
    }
    if let Some(path) = args.take_value("store")? {
        config.engine.store_path = Some(PathBuf::from(path));
    }
    if let Some(n) = args.take_value("segment-bytes")? {
        config.engine.store_options.segment_max_bytes =
            (parse_number(&n, "segment-bytes")? as u64).max(1);
    }
    if let Some(n) = args.take_value("probe-ms")? {
        config.store_probe_ms = (parse_number(&n, "probe-ms")? as u64).max(1);
    }
    if let Some(n) = args.take_value("cache-nodes")? {
        config.engine.cache_budget_aig_nodes = parse_number(&n, "cache-nodes")?;
    }
    config.engine.verify = args.take_flag("verify");
    Ok(config)
}

fn parse_number(value: &str, name: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .map_err(|_| format!("--{name} needs a number, got `{value}`"))
}
