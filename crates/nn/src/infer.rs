//! Scratch arenas for the zero-allocation inference fast path.
//!
//! The deployed verify path runs the same network on the same input
//! shape thousands of times per second; allocating fresh activation
//! tensors on every forward is pure overhead. [`InferCtx`] is a
//! per-worker pool of `Vec<f32>` buffers: layers acquire their output
//! buffer from the pool and release their input back into it, so after
//! one warm-up pass every acquisition is served from a buffer whose
//! capacity already fits and steady-state inference performs no heap
//! allocation at all. The pool tracks a high-water mark and a count of
//! growth events so the steady-state claim is observable (the extractor
//! exports both through telemetry gauges).
//!
//! [`Shape`] is the companion `Copy` shape type: a fixed `[usize; 4]`
//! plus rank, so passing shapes between layers never allocates either.

/// A tensor shape of rank ≤ 4 that is `Copy` (no `Vec` allocation on the
/// hot path). Dimensions beyond the rank are zero and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    dims: [usize; 4],
    rank: usize,
}

impl Shape {
    /// A rank-2 shape `[n, features]`.
    pub fn d2(n: usize, features: usize) -> Shape {
        Shape {
            dims: [n, features, 0, 0],
            rank: 2,
        }
    }

    /// A rank-4 shape `[n, c, h, w]`.
    pub fn d4(n: usize, c: usize, h: usize, w: usize) -> Shape {
        Shape {
            dims: [n, c, h, w],
            rank: 4,
        }
    }

    /// Builds a shape from a slice.
    ///
    /// # Panics
    ///
    /// Panics when `dims` has more than 4 dimensions (no layer in this
    /// crate produces rank > 4).
    pub fn from_dims(dims: &[usize]) -> Shape {
        assert!(dims.len() <= 4, "inference shapes are rank <= 4");
        let mut out = Shape {
            dims: [0; 4],
            rank: dims.len(),
        };
        out.dims[..dims.len()].copy_from_slice(dims);
        out
    }

    /// The dimensions as a slice of length `rank`.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Whether the shape holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dimensions as an owned `Vec` (for wrapping an arena result in
    /// a [`Tensor`]; allocates, so not for the hot loop).
    ///
    /// [`Tensor`]: crate::tensor::Tensor
    pub fn to_vec(&self) -> Vec<usize> {
        self.dims().to_vec()
    }
}

/// A snapshot of an arena's allocation behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Heap growth events (fresh buffer or capacity growth) since the
    /// arena was created or [`InferCtx::reset_growth`] was last called.
    /// Zero across a steady-state window is the zero-allocation claim.
    pub growth_events: u64,
    /// Buffers currently parked in the pool.
    pub pooled_buffers: usize,
    /// Total capacity (bytes) currently parked in the pool.
    pub pooled_bytes: usize,
    /// Maximum combined capacity (bytes) of pooled plus lent-out buffers
    /// ever observed — the arena's memory footprint.
    pub high_water_bytes: usize,
}

/// A per-worker scratch arena: a free list of `f32` buffers reused
/// across inference calls.
///
/// Layers call [`InferCtx::acquire`] for their output and
/// [`InferCtx::release`] for buffers they are done with. The pool is
/// intentionally dumb — best-fit over a handful of buffers — because a
/// fixed network acquires the same sequence of sizes every forward, so
/// after one pass each request is served by the buffer that served it
/// last time.
#[derive(Debug, Default)]
pub struct InferCtx {
    pool: Vec<Vec<f32>>,
    growth_events: u64,
    lent_bytes: usize,
    pooled_bytes: usize,
    high_water_bytes: usize,
}

fn cap_bytes(buf: &Vec<f32>) -> usize {
    buf.capacity() * std::mem::size_of::<f32>()
}

impl InferCtx {
    /// Creates an empty arena.
    pub fn new() -> Self {
        InferCtx::default()
    }

    /// Hands out a zero-filled buffer of length `len`, reusing pooled
    /// capacity when any fits (best fit; otherwise the largest pooled
    /// buffer grows in place).
    pub fn acquire(&mut self, len: usize) -> Vec<f32> {
        let pick = self
            .pool
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i)
            .or_else(|| {
                self.pool
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, b)| b.capacity())
                    .map(|(i, _)| i)
            });
        let mut buf = match pick {
            Some(i) => {
                let buf = self.pool.swap_remove(i);
                self.pooled_bytes -= cap_bytes(&buf);
                buf
            }
            None => {
                self.growth_events += 1;
                Vec::with_capacity(len)
            }
        };
        if buf.capacity() < len {
            self.growth_events += 1;
        }
        buf.clear();
        buf.resize(len, 0.0);
        self.lent_bytes += cap_bytes(&buf);
        self.high_water_bytes = self
            .high_water_bytes
            .max(self.lent_bytes + self.pooled_bytes);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn release(&mut self, buf: Vec<f32>) {
        let bytes = cap_bytes(&buf);
        self.lent_bytes = self.lent_bytes.saturating_sub(bytes);
        self.pooled_bytes += bytes;
        self.high_water_bytes = self
            .high_water_bytes
            .max(self.lent_bytes + self.pooled_bytes);
        self.pool.push(buf);
    }

    /// Current allocation statistics.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            growth_events: self.growth_events,
            pooled_buffers: self.pool.len(),
            pooled_bytes: self.pooled_bytes,
            high_water_bytes: self.high_water_bytes,
        }
    }

    /// Zeroes the growth-event counter, marking the start of a
    /// steady-state observation window (call after warm-up).
    pub fn reset_growth(&mut self) {
        self.growth_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_round_trips_dims() {
        let s = Shape::d4(2, 3, 4, 5);
        assert_eq!(s.dims(), &[2, 3, 4, 5]);
        assert_eq!(s.len(), 120);
        assert!(!s.is_empty());
        assert_eq!(Shape::from_dims(&[7, 9]), Shape::d2(7, 9));
        assert_eq!(Shape::d2(7, 9).to_vec(), vec![7, 9]);
    }

    #[test]
    fn acquire_zero_fills_reused_buffers() {
        let mut ctx = InferCtx::new();
        let mut a = ctx.acquire(4);
        a.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        ctx.release(a);
        let b = ctx.acquire(3);
        assert_eq!(b, vec![0.0; 3]);
    }

    #[test]
    fn steady_state_stops_growing() {
        let mut ctx = InferCtx::new();
        // Warm-up: the sequence a fixed network would request.
        for _ in 0..2 {
            let a = ctx.acquire(100);
            let b = ctx.acquire(37);
            ctx.release(a);
            let c = ctx.acquire(64);
            ctx.release(b);
            ctx.release(c);
        }
        ctx.reset_growth();
        for _ in 0..10 {
            let a = ctx.acquire(100);
            let b = ctx.acquire(37);
            ctx.release(a);
            let c = ctx.acquire(64);
            ctx.release(b);
            ctx.release(c);
        }
        assert_eq!(ctx.stats().growth_events, 0, "steady state reallocated");
        // Max concurrent footprint: `a` (100) is released before `c`
        // (64) is acquired, so `c` best-fits into `a`'s pooled capacity
        // and the peak is 100 + 37 floats.
        assert!(ctx.stats().high_water_bytes >= 137 * 4);
        assert_eq!(ctx.stats().pooled_buffers, 2);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ctx = InferCtx::new();
        let big = ctx.acquire(1000);
        let small = ctx.acquire(10);
        ctx.release(big);
        ctx.release(small);
        ctx.reset_growth();
        let buf = ctx.acquire(8);
        assert!(buf.capacity() < 1000, "best fit picked the big buffer");
        assert_eq!(ctx.stats().growth_events, 0);
    }
}
