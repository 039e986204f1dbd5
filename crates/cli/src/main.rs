//! `fpart` — command-line front end for the partitioning library.
//!
//! ```text
//! fpart partition --n 1000000 --bits 13 --backend fpga --mode pad/rid
//! fpart join --workload A --scale 0.01 --backend hybrid --threads 4
//! fpart sort --n 1000000 --algo lsd
//! fpart model --mode pad/vrid --n 128000000
//! ```
//!
//! Run `fpart help` for the full reference.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => {
            if let Err(e) = commands::run(cmd) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Err(msg) => {
            eprint!("{msg}\n\n{}", args::usage());
            std::process::exit(2);
        }
    }
}
