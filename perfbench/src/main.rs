//! Untraced benchmark binary: end-to-end metrics (`--trace 0`).

fn main() -> std::process::ExitCode {
    perfbench::main(false)
}
