//! `tlb-run`: run one transparent-load-balancing experiment from the
//! command line. See `tlb-run --help`.

#![forbid(unsafe_code)]

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("sweep") {
        sweep_main(argv[1..].to_vec());
        return;
    }
    if argv.first().map(String::as_str) == Some("serve") {
        serve_main(argv[1..].to_vec());
        return;
    }
    let args = match tlb_cli::parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match tlb_cli::run(&args) {
        Ok((report, perfect)) => {
            if args.json {
                println!("{}", tlb_cli::format_json(&args, &report, perfect));
            } else {
                print!("{}", tlb_cli::format_text(&args, &report, perfect));
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The `sweep` subcommand: flag or scenario-schema violations exit 2
/// (usage errors, like `--faults` validation); engine failures exit 1.
fn sweep_main(argv: Vec<String>) {
    let args = match tlb_cli::parse_sweep_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let scenario = match tlb_cli::load_scenario(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match tlb_cli::run_sweep_cmd(&args, &scenario) {
        Ok(summary) => println!("{summary}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The `serve` subcommand: start the resident sweep daemon and block
/// until a client sends `shutdown` (which drains in-flight points and
/// flushes the cache before the process exits).
fn serve_main(argv: Vec<String>) {
    let args = match tlb_cli::parse_serve_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let server = match tlb_serve::Server::start(&args.addr, tlb_cli::serve_config(&args)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: binding {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!("tlb-serve listening on {}", server.local_addr());
    server.join();
}
