// An I/O crate: hash containers and wall clocks are fine here —
// rules 1/2/4 must NOT fire on this file (rules 5/6 still apply, and
// rule 7 is about this crate only).
use std::collections::HashMap;

pub fn connections() -> HashMap<u32, std::time::Instant> {
    HashMap::new()
}

// Seeded rule-7 hazard: an accept loop that waits on a timer.
pub fn accept_loop_wait() {
    std::thread::sleep(std::time::Duration::from_millis(5));
}

#[cfg(test)]
mod tests {
    // Tests may sleep: rule 7 must not fire here.
    fn settle() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}
