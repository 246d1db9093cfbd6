//! A caller outside the module, its crate's tests and `lib.rs`.
fn main() {
    let mut q = kernel::Queue::default();
    q.push(7);
    println!("{:?}", kernel::drain(&mut q));
}
