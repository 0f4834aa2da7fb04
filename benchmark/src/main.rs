//! `lsm-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1|both>`

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(lsm_benchmark::cli::main(&args));
}
