//! Fixture module: one public type, one free function.

#[derive(Default)]
pub struct Queue(Vec<u32>);

impl Queue {
    pub fn push(&mut self, v: u32) {
        self.0.push(v);
    }
}

pub fn drain(q: &mut Queue) -> Vec<u32> {
    std::mem::take(&mut q.0)
}
