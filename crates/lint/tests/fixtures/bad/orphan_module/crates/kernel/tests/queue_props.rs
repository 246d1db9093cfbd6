//! The module's own tests: not a caller.
use kernel::queue::{drain, Queue};

#[test]
fn drains_in_order() {
    let mut q = Queue::default();
    q.push(1);
    assert_eq!(drain(&mut q), vec![1]);
}
