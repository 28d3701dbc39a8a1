//! `cbrand` — the C-Brain serving daemon.
//!
//! ```text
//! cbrand [--host HOST] [--port PORT] [--jobs N] [--cache auto|off|PATH]
//!        [--workers N] [--queue-depth N] [--metrics-addr ADDR]
//! ```
//!
//! Prints `cbrand listening on HOST:PORT` on stdout once bound (scripts
//! parse the port from this line when `--port 0` asks for an ephemeral
//! one), then serves until a client sends `shutdown`. With a metrics
//! listener enabled (`--metrics-addr`, or the `CBRAIN_METRICS_ADDR`
//! environment variable when the flag is absent) it also prints
//! `cbrand metrics listening on HOST:PORT` — again parseable when the
//! requested port was 0.

use cbrain_serve::daemon::{resolve_metrics_addr, Daemon, DaemonOptions};
use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "cbrand - C-Brain serving daemon

USAGE:
    cbrand [OPTIONS]

OPTIONS:
    --host HOST     Bind address (default 127.0.0.1)
    --port PORT     TCP port; 0 picks an ephemeral port (default 7227)
    --jobs N        Pool workers per compile batch; 0 = all cores (default 0)
    --cache MODE    auto (default): the resolved user cache file
                    off:            no persistence
                    PATH:           an explicit cache file
    --workers N     Connection-serving worker threads; 0 = max(cores, 4)
                    (default 0)
    --queue-depth N Queued requests at which the daemon starts answering
                    `busy` instead of queueing; shedding stops again at
                    half of it. 0 = 64 (default 0)
    --metrics-addr ADDR
                    Serve Prometheus text-format metrics over HTTP at
                    ADDR (e.g. 127.0.0.1:9227; port 0 picks an ephemeral
                    port). Default: CBRAIN_METRICS_ADDR, else disabled
    --help          Show this help
";

struct Args {
    host: String,
    port: u16,
    jobs: usize,
    cache: String,
    workers: usize,
    queue_depth: usize,
    metrics_addr: Option<String>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        host: "127.0.0.1".to_owned(),
        port: 7227,
        jobs: 0,
        cache: "auto".to_owned(),
        workers: 0,
        queue_depth: 0,
        metrics_addr: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for `{flag}`"))?;
        match flag {
            "--host" => args.host = value.clone(),
            "--port" => {
                args.port = value.parse().map_err(|_| format!("bad port `{value}`"))?;
            }
            "--jobs" => {
                args.jobs = value
                    .parse()
                    .map_err(|_| format!("bad job count `{value}`"))?;
            }
            "--cache" => args.cache = value.clone(),
            "--workers" => {
                args.workers = value
                    .parse()
                    .map_err(|_| format!("bad worker count `{value}`"))?;
            }
            "--queue-depth" => {
                args.queue_depth = value
                    .parse()
                    .map_err(|_| format!("bad queue depth `{value}`"))?;
            }
            "--metrics-addr" => args.metrics_addr = Some(value.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    Ok(Some(args))
}

fn cache_path(mode: &str) -> Option<PathBuf> {
    match mode {
        "off" => None,
        "auto" => cbrain::config::EnvConfig::load().cache_file(),
        path => Some(PathBuf::from(path)),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("cbrand: {message}");
            eprintln!("run `cbrand --help` for usage");
            return ExitCode::FAILURE;
        }
    };
    let jobs = if args.jobs == 0 {
        cbrain::available_jobs()
    } else {
        args.jobs
    };
    let opts = DaemonOptions {
        jobs,
        cache_path: cache_path(&args.cache),
        workers: args.workers,
        queue_depth: args.queue_depth,
        busy_retry_ms: 0,
        metrics_addr: resolve_metrics_addr(args.metrics_addr, &cbrain::config::EnvConfig::load()),
    };
    let daemon = match Daemon::bind(&format!("{}:{}", args.host, args.port), opts) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("cbrand: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("cbrand: {}", daemon.load_note());
    println!("cbrand listening on {}", daemon.local_addr());
    if let Some(addr) = daemon.metrics_addr() {
        println!("cbrand metrics listening on {addr}");
    }
    // Scripts wait on this line; make sure it is out before we block.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match daemon.run() {
        Ok(save_note) => {
            eprintln!("cbrand: {save_note}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cbrand: serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}
