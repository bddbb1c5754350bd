//! `bfetch <name> [flags]`: every table, figure, extension and utility of
//! the reproduction behind one executable (`bfetch list` names them).

fn main() {
    std::process::exit(bfetch_bench::registry::main(std::env::args().skip(1)));
}
