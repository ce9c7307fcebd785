//! The `flowd` binary: parse options, start the daemon, wait for drain.
//!
//! ```text
//! flowd --addr 127.0.0.1:7171 --workers 4 --store qor-store.jsonl
//! ```
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
                          legacy plain JSONL stores are read and upgraded on
                          their first compaction)
    --segment-bytes <n>   rotate the live store segment at this size
                                                            [default: 8388608]
    --probe-ms <n>        degraded-store recovery probe period [default: 500]
    --verify              verify every evaluated flow by random simulation
    --cache-nodes <n>     process-wide budget for resident intermediate
                          AIGs, in total AIG nodes (LRU)  [default: 4000000]
    --edit-mode <mode>    how passes apply replacements: `inplace` mutates
                          the resident graph, `rebuild` is the pinned
                          re-emit path (bit-identical QoR)
                                                            [default: inplace]

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
    if let Some(mode) = args.take_value("edit-mode")? {
        config.engine.edit_mode = parse_edit_mode(&mode)?;
    }
    config.engine.verify = args.take_flag("verify");
    Ok(config)
}

fn parse_edit_mode(value: &str) -> Result<synth::EditMode, String> {
    match value {
        "inplace" | "in-place" => Ok(synth::EditMode::InPlace),
        "rebuild" => Ok(synth::EditMode::Rebuild),
        other => Err(format!(
            "--edit-mode must be `inplace` or `rebuild`, got `{other}`"
        )),
    }
}

fn parse_number(value: &str, name: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .map_err(|_| format!("--{name} needs a number, got `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_mode_flag_parses() {
        assert_eq!(parse_edit_mode("inplace"), Ok(synth::EditMode::InPlace));
        assert_eq!(parse_edit_mode("in-place"), Ok(synth::EditMode::InPlace));
        assert_eq!(parse_edit_mode("rebuild"), Ok(synth::EditMode::Rebuild));
        assert!(parse_edit_mode("frobnicate").is_err());
    }

    #[test]
    fn edit_mode_flag_reaches_engine_config() {
        let mut args = Args::new(vec!["--edit-mode".into(), "rebuild".into()]);
        let config = parse_config(&mut args).expect("valid flags");
        args.finish().expect("all flags consumed");
        assert_eq!(config.engine.edit_mode, synth::EditMode::Rebuild);
    }
}
