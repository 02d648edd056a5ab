//! The `caa` binary: [`caa_bench::cli`] on the process's arguments and
//! standard output.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let status = caa_bench::cli::run(&args, &mut std::io::stdout().lock());
    std::process::exit(status);
}
