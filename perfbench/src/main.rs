use fpart_perfbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    std::process::exit(fpart_perfbench::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
