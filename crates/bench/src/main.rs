//! `ooc-bench <command> [flags]` — see [`ooc_bench::cmd`] for the commands.

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ooc_bench::run(&tokens));
}
