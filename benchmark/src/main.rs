//! `d2-bench` entry point; see [`d2_benchmark::cli`].

fn main() {
    std::process::exit(d2_benchmark::cli::main(std::env::args().skip(1).collect()));
}
