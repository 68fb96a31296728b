//! The occupancy index: one bit per slot, plus one set-bit count per
//! 512-bit block.
//!
//! A [`Bitmap`] is the only occupancy index in the workspace. Window
//! questions ("who occupies `[a, b)`?", "how many?") walk only the
//! window's words with `count_ones`/`trailing_zeros`. Global questions
//! ("how many set bits precede `pos`?", "where is the k-th set or clear
//! bit?") start from the block counts, which sit in a Fenwick array over
//! the m/512 blocks, and finish with popcounts over at most one block's
//! eight words — rank and select in the style of Vigna ("Broadword
//! Implementation of Rank/Select Queries", WEA 2008) and Zhou, Andersen
//! and Kaminsky ("Space-Efficient, High-Performance Rank & Select
//! Structures", SEA 2013). Inside the answer's word, select runs Vigna's
//! branch-free `select64`. `count_ones` is one `popcnt` instruction on
//! x86-64 builds, which the repository's `.cargo/config.toml` targets at
//! x86-64-v2; other builds get a software popcount and the same answers.
//! A caller that already knows the rank of a nearby position asks
//! [`select_near`](Bitmap::select_near) instead: it walks from there and
//! touches the block counts only when the answer is far away.
//!
//! A block is one 64-byte cache line of words, so a rank or select reads
//! the O(log(m/512)) count entries plus one line, and the counts cost
//! 4 bytes per 512 bits (1/128 byte per position) on top of the bit itself.
//! Flipping a bit updates O(log(m/512)) counts; moving a bit within its
//! block updates none, and an ascending run of new bits
//! ([`set_ascending`](Bitmap::set_ascending)) updates each block's counts
//! once.

/// Positions per counted block: eight words, one cache line.
const BLOCK_BITS: usize = 512;
/// Words per counted block.
const BLOCK_WORDS: usize = BLOCK_BITS / 64;
/// Steps (one set bit or one empty word each) a finger select takes
/// before it starts counting whole words.
const SHORT_HOPS: usize = 8;

/// A fixed-length bitmap with rank and select. The words come first
/// (`repr(C)`): a keyed read of a slot array reads them and nothing else
/// here.
#[derive(Debug, PartialEq, Eq)]
#[repr(C)]
pub struct Bitmap {
    words: Vec<u64>,
    /// Fenwick array (1-based) over per-block set-bit counts: `counts[i]`
    /// sums the blocks `i - lowbit(i) .. i`.
    counts: Vec<u32>,
    ones: usize,
    len: usize,
}

impl Clone for Bitmap {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
            counts: self.counts.clone(),
            ones: self.ones,
            len: self.len,
        }
    }

    /// Copy `source` word by word into this bitmap's buffers, which are
    /// reused when the lengths match.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.counts.clone_from(&source.counts);
        self.ones = source.ones;
        self.len = source.len;
    }
}

impl Bitmap {
    /// Bytes from the start of a `Bitmap` to the end of its words, the
    /// field a keyed read reads.
    pub const READ_FIELDS_END: usize =
        std::mem::offset_of!(Bitmap, words) + std::mem::size_of::<Vec<u64>>();

    /// An all-zero bitmap over `len` positions.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            counts: vec![0; len.div_ceil(BLOCK_BITS) + 1],
            ones: 0,
            len,
        }
    }

    /// Number of positions covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers zero positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// The bit at `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> bool {
        debug_assert!(pos < self.len);
        self.words[pos >> 6] >> (pos & 63) & 1 == 1
    }

    /// The word holding positions `64w .. 64w + 64`, bit `i` for position
    /// `64w + i`. Bits past [`len`](Self::len) are clear.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Set the clear bit at `pos`.
    #[inline]
    pub fn set(&mut self, pos: usize) {
        debug_assert!(pos < self.len && !self.get(pos), "set: bit {pos} already set");
        self.words[pos >> 6] |= 1 << (pos & 63);
        self.add_to_block(pos / BLOCK_BITS, 1);
        self.ones += 1;
    }

    /// Clear the set bit at `pos`.
    #[inline]
    pub fn clear(&mut self, pos: usize) {
        debug_assert!(pos < self.len && self.get(pos), "clear: bit {pos} already clear");
        self.words[pos >> 6] &= !(1 << (pos & 63));
        self.add_to_block(pos / BLOCK_BITS, -1);
        self.ones -= 1;
    }

    /// Set the clear bits at `positions`, which ascend: each 512-bit
    /// block's count is updated once for its whole run of new bits, not
    /// once per bit. (Positions out of order still give the right counts,
    /// at one update per run.)
    pub fn set_ascending(&mut self, positions: impl IntoIterator<Item = usize>) {
        let (mut block, mut run) = (0, 0);
        for pos in positions {
            debug_assert!(pos < self.len && !self.get(pos), "set: bit {pos} already set");
            if pos / BLOCK_BITS != block {
                self.add_run(block, run);
                (block, run) = (pos / BLOCK_BITS, 0);
            }
            self.words[pos >> 6] |= 1 << (pos & 63);
            run += 1;
        }
        self.add_run(block, run);
    }

    /// Count `run` new set bits in `block`.
    #[inline]
    fn add_run(&mut self, block: usize, run: i32) {
        if run > 0 {
            self.add_to_block(block, run);
            self.ones += run as usize;
        }
    }

    /// Move the set bit at `from` to the clear position `to`. Within one
    /// block no count changes.
    #[inline]
    pub fn move_bit(&mut self, from: usize, to: usize) {
        debug_assert!(from < self.len && self.get(from), "move_bit: bit {from} is clear");
        debug_assert!(to < self.len && !self.get(to), "move_bit: bit {to} is set");
        self.words[from >> 6] &= !(1 << (from & 63));
        self.words[to >> 6] |= 1 << (to & 63);
        let (a, b) = (from / BLOCK_BITS, to / BLOCK_BITS);
        if a != b {
            self.add_to_block(a, -1);
            self.add_to_block(b, 1);
        }
    }

    /// Number of set bits at positions strictly before `pos` (all of them
    /// if `pos >= len`).
    #[inline]
    pub fn rank(&self, pos: usize) -> usize {
        let pos = pos.min(self.len);
        let (block, w) = (pos / BLOCK_BITS, pos >> 6);
        let mut r = self.ones_before_block(block);
        for word in &self.words[block * BLOCK_WORDS..w] {
            r += word.count_ones() as usize;
        }
        if pos & 63 != 0 {
            r += (self.words[w] & ((1 << (pos & 63)) - 1)).count_ones() as usize;
        }
        r
    }

    /// Position of the `k`-th (0-based) set bit; `None` if `k >= count_ones()`.
    #[inline]
    pub fn select(&self, k: usize) -> Option<usize> {
        if k >= self.ones {
            return None;
        }
        let (block, mut r) = self.find_block(k, false);
        let mut w = block * BLOCK_WORDS;
        loop {
            let c = self.words[w].count_ones() as usize;
            if r < c {
                return Some((w << 6) + select_in_word(self.words[w], r));
            }
            r -= c;
            w += 1;
        }
    }

    /// [`select`](Self::select) from a finger: `hint` is a position (at
    /// most `len`) and `hint_rank` its [`rank`](Self::rank). A short hop
    /// steps set bits with `trailing_zeros`/`leading_zeros` (no popcount),
    /// a longer one popcounts at most one block of words from the hint's
    /// word, and anything farther falls back to `select`. The answer is
    /// `select(k)`'s; only the work depends on the distance.
    #[inline]
    pub fn select_near(&self, k: usize, hint: usize, hint_rank: usize) -> Option<usize> {
        debug_assert!(hint <= self.len && hint_rank == self.rank(hint), "stale finger");
        if k >= self.ones {
            return None;
        }
        let near = if k >= hint_rank {
            self.select_after(k - hint_rank, hint)
        } else {
            self.select_before(hint_rank - 1 - k, hint)
        };
        near.or_else(|| self.select(k))
    }

    /// The `r`-th (0-based) set bit at or after `from`, if it lies within
    /// [`SHORT_HOPS`] steps plus one block of words; `None` if farther.
    #[inline]
    fn select_after(&self, mut r: usize, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        let mut word = *self.words.get(w)? & (!0 << (from & 63));
        for _ in 0..SHORT_HOPS {
            if word == 0 {
                w += 1;
                word = *self.words.get(w)?;
            } else if r == 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            } else {
                word &= word - 1;
                r -= 1;
            }
        }
        for _ in 0..BLOCK_WORDS {
            let c = word.count_ones() as usize;
            if r < c {
                return Some((w << 6) + select_in_word(word, r));
            }
            r -= c;
            w += 1;
            word = *self.words.get(w)?;
        }
        None
    }

    /// The `r`-th (0-based) set bit counting down from the last one before
    /// `before`, within the same reach as [`select_after`](Self::select_after).
    #[inline]
    fn select_before(&self, mut r: usize, before: usize) -> Option<usize> {
        let mut w = before >> 6;
        let mut word =
            if before & 63 == 0 { 0 } else { self.words[w] & ((1 << (before & 63)) - 1) };
        for _ in 0..SHORT_HOPS {
            if word == 0 {
                w = w.checked_sub(1)?;
                word = self.words[w];
            } else {
                let top = 63 - word.leading_zeros() as usize;
                if r == 0 {
                    return Some((w << 6) + top);
                }
                word ^= 1 << top;
                r -= 1;
            }
        }
        for _ in 0..BLOCK_WORDS {
            let c = word.count_ones() as usize;
            if r < c {
                return Some((w << 6) + select_in_word(word, c - 1 - r));
            }
            r -= c;
            w = w.checked_sub(1)?;
            word = self.words[w];
        }
        None
    }

    /// Position of the `k`-th (0-based) clear bit; `None` if there are no
    /// more than `k` clear bits.
    #[inline]
    pub fn select_zero(&self, k: usize) -> Option<usize> {
        if k >= self.len - self.ones {
            return None;
        }
        let (block, mut r) = self.find_block(k, true);
        let mut w = block * BLOCK_WORDS;
        // The padding bits past `len` read as clear here, but they follow
        // every real clear bit, and the k-th is a real one.
        loop {
            let c = self.words[w].count_zeros() as usize;
            if r < c {
                return Some((w << 6) + select_in_word(!self.words[w], r));
            }
            r -= c;
            w += 1;
        }
    }

    /// Heap bytes held by the words and the block counts.
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.counts.capacity() * std::mem::size_of::<u32>()
    }

    /// Number of words a scan of `[a, b)` touches.
    #[inline]
    pub fn words_spanned(a: usize, b: usize) -> usize {
        if a >= b {
            0
        } else {
            (b - 1) / 64 - a / 64 + 1
        }
    }

    /// The word holding positions `64w..64w+64`, masked to `[a, b)`.
    #[inline]
    fn masked_word(&self, w: usize, a: usize, b: usize) -> u64 {
        let mut word = self.words[w];
        let base = w << 6;
        if a > base {
            word &= !0 << (a - base);
        }
        if b < base + 64 {
            word &= (1u64 << (b - base)) - 1;
        }
        word
    }

    /// Count of set bits in `[a, b)` — popcount over the spanned words.
    pub fn count_in(&self, a: usize, b: usize) -> usize {
        let b = b.min(self.len);
        if a >= b {
            return 0;
        }
        (a / 64..=(b - 1) / 64).map(|w| self.masked_word(w, a, b).count_ones() as usize).sum()
    }

    /// Iterate set-bit positions in `[a, b)` in increasing order, walking
    /// one word at a time with `trailing_zeros`.
    pub fn ones_in(&self, a: usize, b: usize) -> OnesIn<'_> {
        let b = b.min(self.len);
        let a = a.min(b);
        OnesIn {
            bits: self,
            b,
            word: if a < b { self.masked_word(a / 64, a, b) } else { 0 },
            w: a / 64,
            words_scanned: if a < b { 1 } else { 0 },
        }
    }

    /// The first set bit at or after `pos`, if any. Unbounded word scan; use
    /// only where the caller knows the distance is short (or doesn't care).
    pub fn next_one(&self, pos: usize) -> Option<usize> {
        if pos >= self.len {
            return None;
        }
        let mut w = pos >> 6;
        let mut word = self.words[w] & (!0 << (pos & 63));
        loop {
            if word != 0 {
                let p = (w << 6) + word.trailing_zeros() as usize;
                return (p < self.len).then_some(p);
            }
            w += 1;
            if w >= self.words.len() {
                return None;
            }
            word = self.words[w];
        }
    }

    /// The last set bit at or before `pos`, if any.
    pub fn prev_one(&self, pos: usize) -> Option<usize> {
        let pos = pos.min(self.len.saturating_sub(1));
        if self.len == 0 {
            return None;
        }
        let mut w = pos >> 6;
        let mut word = self.words[w] & (!0 >> (63 - (pos & 63)));
        loop {
            if word != 0 {
                return Some((w << 6) + 63 - word.leading_zeros() as usize);
            }
            if w == 0 {
                return None;
            }
            w -= 1;
            word = self.words[w];
        }
    }

    /// The first clear bit at or after `pos`, if any: the word holding
    /// `pos`, else a select over clear bits.
    pub fn next_zero(&self, pos: usize) -> Option<usize> {
        if pos >= self.len {
            return None;
        }
        let w = pos >> 6;
        let word = !self.words[w] & (!0 << (pos & 63));
        if word != 0 {
            let p = (w << 6) + word.trailing_zeros() as usize;
            return (p < self.len).then_some(p);
        }
        let next = (w + 1) << 6;
        if next >= self.len {
            return None;
        }
        self.select_zero(next - self.rank(next))
    }

    /// The last clear bit at or before `pos`, if any (same strategy as
    /// [`next_zero`](Self::next_zero)).
    pub fn prev_zero(&self, pos: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let pos = pos.min(self.len - 1);
        let w = pos >> 6;
        let word = !self.words[w] & (!0 >> (63 - (pos & 63)));
        if word != 0 {
            return Some((w << 6) + 63 - word.leading_zeros() as usize);
        }
        let start = w << 6;
        (start - self.rank(start)).checked_sub(1).and_then(|k| self.select_zero(k))
    }

    /// Verify the block counts and the total against the words, and that
    /// no bit past `len` is set. One O(m) sweep; tests and diagnostics.
    pub fn check_consistent(&self) {
        let mut total = 0;
        for (block, words) in self.words.chunks(BLOCK_WORDS).enumerate() {
            let count: usize = words.iter().map(|w| w.count_ones() as usize).sum();
            let indexed = self.ones_before_block(block + 1) - self.ones_before_block(block);
            assert_eq!(indexed, count, "count mismatch in block {block}");
            total += count;
        }
        assert_eq!(total, self.ones, "total mismatch");
        if self.len & 63 != 0 {
            assert_eq!(self.words[self.len >> 6] >> (self.len & 63), 0, "bit set past len");
        }
    }

    /// Add `delta` to the count of `block`.
    #[inline]
    fn add_to_block(&mut self, block: usize, delta: i32) {
        let mut i = block + 1;
        while i < self.counts.len() {
            self.counts[i] = self.counts[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Set bits in the blocks before `block`.
    #[inline]
    fn ones_before_block(&self, block: usize) -> usize {
        let (mut i, mut sum) = (block, 0);
        while i > 0 {
            sum += self.counts[i] as usize;
            i &= i - 1;
        }
        sum
    }

    /// Fenwick descent: the block holding the `k`-th (0-based) set bit —
    /// or clear bit, if `zeros` — and that bit's rank within the block.
    #[inline]
    fn find_block(&self, mut k: usize, zeros: bool) -> (usize, usize) {
        let mut block = 0;
        let mut step = self.counts.len().next_power_of_two() / 2;
        while step > 0 {
            let next = block + step;
            if next < self.counts.len() {
                let ones = self.counts[next] as usize;
                let n = if zeros {
                    (next * BLOCK_BITS).min(self.len) - block * BLOCK_BITS - ones
                } else {
                    ones
                };
                if n <= k {
                    k -= n;
                    block = next;
                }
            }
            step >>= 1;
        }
        (block, k)
    }
}

/// `0x01` in every byte.
const BYTES_1: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte.
const BYTES_MSB: u64 = 0x80 * BYTES_1;

/// `SELECT_IN_BYTE[byte | r << 8]` is the offset of the `r`-th (0-based)
/// set bit of `byte`, for `r` below its popcount; 8 elsewhere. 2 KiB.
static SELECT_IN_BYTE: [u8; 2048] = {
    let mut table = [8; 2048];
    let mut byte = 0;
    while byte < 256 {
        let (mut bit, mut r) = (0, 0);
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[byte | r << 8] = bit as u8;
                r += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// Offset of the `r`-th (0-based) set bit of `word`, which has more than
/// `r`, without a branch: Vigna's broadword `select64`. One multiplication
/// turns the byte popcounts into running sums, one SWAR compare (on all
/// eight bytes at once) counts the bytes before the target, and a table
/// finishes inside the target byte.
#[inline]
fn select_in_word(word: u64, r: usize) -> usize {
    debug_assert!(r < word.count_ones() as usize);
    let r = r as u64;
    // Popcount of each byte, in that byte.
    let mut sums = word - (word >> 1 & 0x5555_5555_5555_5555);
    sums = (sums & 0x3333_3333_3333_3333) + (sums >> 2 & 0x3333_3333_3333_3333);
    sums = (sums + (sums >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte i holds the set bits of bytes 0..=i (at most 64: no carries).
    sums = sums.wrapping_mul(BYTES_1);
    // Byte i's top bit is set iff sums[i] <= r, i.e. byte i lies wholly
    // before the target; their number, times 8, is the target's offset.
    let before = (((r * BYTES_1) | BYTES_MSB) - sums) & BYTES_MSB;
    let shift = ((before >> 7).wrapping_mul(BYTES_1) >> 53 & !7) as u32;
    let rank_in_byte = r - ((sums << 8) >> shift & 0xFF);
    let byte = word >> shift & 0xFF;
    shift as usize + SELECT_IN_BYTE[(byte | rank_in_byte << 8) as usize] as usize
}

/// Iterator over set-bit positions in a window (see [`Bitmap::ones_in`]).
pub struct OnesIn<'a> {
    bits: &'a Bitmap,
    b: usize,
    /// Remaining bits of the current word (already masked to the window).
    word: u64,
    /// Current word index.
    w: usize,
    /// Words examined so far (flushed into scan instrumentation by
    /// wrappers that care; see `SlotArray::iter_occupied_in`).
    words_scanned: usize,
}

impl OnesIn<'_> {
    /// Words examined so far.
    #[inline]
    pub fn words_scanned(&self) -> usize {
        self.words_scanned
    }
}

impl Iterator for OnesIn<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.word != 0 {
                let p = (self.w << 6) + self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(p);
            }
            self.w += 1;
            if (self.w << 6) >= self.b {
                return None;
            }
            self.word = self.bits.masked_word(self.w, 0, self.b);
            self.words_scanned += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The word select that `select_in_word` replaced: halve the window
    /// by popcount down to one byte, then drop the set bits below the
    /// target. Kept as the reference the broadword version must match.
    fn select_in_word_by_halves(word: u64, r: usize) -> usize {
        let (mut word, mut r, mut base) = (word, r as u32, 0);
        for half in [32u32, 16, 8] {
            let low = (word & ((1 << half) - 1)).count_ones();
            if r >= low {
                r -= low;
                word >>= half;
                base += half as usize;
            }
        }
        for _ in 0..r {
            word &= word - 1;
        }
        base + word.trailing_zeros() as usize
    }

    /// Both word selects agree at every rank of `word`.
    fn assert_word_select_matches(word: u64) {
        for r in 0..word.count_ones() as usize {
            assert_eq!(
                select_in_word(word, r),
                select_in_word_by_halves(word, r),
                "word {word:#018x}, rank {r}"
            );
        }
    }

    #[test]
    fn word_select_reads_every_byte_at_every_rank_through_the_table() {
        for byte in 0..256u64 {
            for r in 0..byte.count_ones() as usize {
                let want = select_in_word_by_halves(byte, r);
                assert_eq!(usize::from(SELECT_IN_BYTE[byte as usize | r << 8]), want);
            }
            // The byte in each lane, alone and between full and
            // alternating neighbours, so the target byte and the bytes
            // below it vary independently.
            for lane in 0..8 {
                let at = byte << (8 * lane);
                let others = !(0xFF << (8 * lane));
                for fill in [0, !0, 0x5555_5555_5555_5555, 0x8001_8001_8001_8001] {
                    assert_word_select_matches(at | fill & others);
                }
            }
        }
    }

    #[test]
    fn word_select_matches_on_edge_words() {
        for bit in 0..64 {
            assert_word_select_matches(1 << bit);
            assert_word_select_matches(!0 << bit);
            assert_word_select_matches(!0 >> bit);
        }
        for word in [!0, 0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA, 1 | 1 << 63] {
            assert_word_select_matches(word);
        }
    }

    #[test]
    fn word_select_matches_on_a_million_random_words() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(25);
        for i in 0..1_000_000u32 {
            // Densities of about 1/8, 1/4, 1/2, 3/4 and 7/8 set bits.
            let (a, b, c) = (rng.gen::<u64>(), rng.gen::<u64>(), rng.gen::<u64>());
            let word = [a & b & c, a & b, a, a | b, a | b | c][i as usize % 5];
            let ones = word.count_ones() as usize;
            if ones == 0 {
                continue;
            }
            for r in [0, rng.gen_range(0..ones), ones - 1] {
                assert_eq!(
                    select_in_word(word, r),
                    select_in_word_by_halves(word, r),
                    "word {word:#018x}, rank {r}"
                );
            }
        }
    }

    fn from_positions(positions: &[usize], len: usize) -> Bitmap {
        let mut b = Bitmap::new(len);
        for &p in positions {
            b.set(p);
        }
        b
    }

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(129));
        b.set(129);
        b.set(0);
        b.set(64);
        assert!(b.get(129) && b.get(0) && b.get(64));
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn count_in_matches_naive() {
        let pos = [0, 1, 63, 64, 65, 127, 128, 199];
        let b = from_positions(&pos, 200);
        for a in [0, 1, 63, 64, 100, 199, 200] {
            for e in [0, 1, 64, 65, 128, 200] {
                let naive = pos.iter().filter(|&&p| a <= p && p < e).count();
                assert_eq!(b.count_in(a, e), naive, "count_in({a}, {e})");
            }
        }
    }

    #[test]
    fn ones_in_matches_naive() {
        let pos = [3, 63, 64, 100, 191, 192];
        let b = from_positions(&pos, 193);
        for (a, e) in [(0, 193), (3, 64), (64, 65), (65, 191), (100, 193), (5, 5)] {
            let got: Vec<usize> = b.ones_in(a, e).collect();
            let want: Vec<usize> = pos.iter().copied().filter(|&p| a <= p && p < e).collect();
            assert_eq!(got, want, "ones_in({a}, {e})");
        }
    }

    #[test]
    fn neighbors() {
        let b = from_positions(&[2, 70, 140], 150);
        assert_eq!(b.next_one(0), Some(2));
        assert_eq!(b.next_one(3), Some(70));
        assert_eq!(b.next_one(141), None);
        assert_eq!(b.prev_one(149), Some(140));
        assert_eq!(b.prev_one(69), Some(2));
        assert_eq!(b.prev_one(1), None);
    }

    #[test]
    fn zero_neighbors_skip_full_runs() {
        // 1,400 bits, all set except 130 and 1,399: the searches must cross
        // full words and blocks through the index.
        let mut b = Bitmap::new(1400);
        for i in (0..1400).filter(|&i| i != 130 && i != 1399) {
            b.set(i);
        }
        assert_eq!(b.next_zero(0), Some(130));
        assert_eq!(b.next_zero(131), Some(1399));
        assert_eq!(b.prev_zero(1399), Some(1399));
        assert_eq!(b.prev_zero(1398), Some(130));
        assert_eq!(b.prev_zero(129), None);
        b.set(1399);
        assert_eq!(b.next_zero(131), None);
        let full = from_positions(&[0, 1, 2], 3);
        assert_eq!(full.next_zero(0), None);
        assert_eq!(full.prev_zero(2), None);
    }

    #[test]
    fn tail_bits_beyond_len_are_ignored() {
        // len 70: word 1 has only 6 valid bits; a zero "beyond" len must
        // never be reported.
        let mut b = Bitmap::new(70);
        for i in 0..70 {
            b.set(i);
        }
        assert_eq!(b.next_zero(0), None);
        assert_eq!(b.select_zero(0), None);
        assert_eq!(b.next_one(69), Some(69));
        assert_eq!(b.count_in(0, 70), 70);
        b.check_consistent();
    }

    #[test]
    fn churn_within_and_across_blocks_stays_consistent() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let n = 1400;
        let mut b = Bitmap::new(n);
        let mut model = vec![false; n];
        for step in 0..4000 {
            let p = rng.gen_range(0..n);
            if step % 3 == 0 && model[p] {
                // A short hop usually stays in its block; a long one leaves it.
                let reach = if step % 2 == 0 { 8 } else { n };
                let q = (p + rng.gen_range(1..reach)) % n;
                if !model[q] {
                    b.move_bit(p, q);
                    model.swap(p, q);
                }
            } else if model[p] {
                b.clear(p);
                model[p] = false;
            } else {
                b.set(p);
                model[p] = true;
            }
            b.check_consistent();
            let k = rng.gen_range(0..n);
            assert_eq!(b.rank(k), model[..k].iter().filter(|&&x| x).count());
        }
    }

    #[test]
    fn select_near_matches_select() {
        // Lengths straddle word and 512-bit block edges; each bitmap is
        // churned between probes, and every probe's hint is exact.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let lens = (0..=70).chain(127..=129).chain(511..=513).chain(1023..=1025).chain([4999]);
        for len in lens {
            for density in [0, 3, 25, 50, 75, 97, 100] {
                let mut b = Bitmap::new(len);
                for p in 0..len {
                    if rng.gen_range(0..100) < density {
                        b.set(p);
                    }
                }
                for _ in 0..8 {
                    for _ in 0..len.min(6) {
                        let (p, q) = (rng.gen_range(0..len), rng.gen_range(0..len));
                        match (b.get(p), b.get(q)) {
                            (true, false) => b.move_bit(p, q),
                            (true, true) => b.clear(p),
                            (false, _) => b.set(p),
                        }
                    }
                    for _ in 0..24 {
                        let hint = rng.gen_range(0..=len);
                        let hint_rank = b.rank(hint);
                        // Near the hint on either side, anywhere, or past
                        // the last set bit.
                        let k = match rng.gen_range(0..4) {
                            0 => hint_rank.saturating_sub(rng.gen_range(1..40usize)),
                            1 => hint_rank + rng.gen_range(0..40usize),
                            2 => rng.gen_range(0..=b.count_ones()),
                            _ => b.count_ones() + rng.gen_range(0..3usize),
                        };
                        assert_eq!(
                            b.select_near(k, hint, hint_rank),
                            b.select(k),
                            "len {len}, density {density}%, k {k}, hint {hint}"
                        );
                    }
                }
                b.check_consistent();
            }
        }
    }

    #[test]
    fn set_ascending_equals_one_set_per_bit() {
        // Runs that fill, skip and straddle 512-bit blocks, onto bitmaps
        // that already hold bits; block counts and totals must match.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for len in [1, 63, 64, 511, 512, 513, 1400, 5000] {
            for density in [0, 10, 50, 100] {
                let mut one_by_one = Bitmap::new(len);
                for p in 0..len {
                    if rng.gen_range(0..100) < 20 {
                        one_by_one.set(p);
                    }
                }
                let mut batched = one_by_one.clone();
                let run: Vec<usize> = (0..len)
                    .filter(|&p| !one_by_one.get(p) && rng.gen_range(0..100) < density)
                    .collect();
                for &p in &run {
                    one_by_one.set(p);
                }
                batched.set_ascending(run.iter().copied());
                batched.check_consistent();
                assert_eq!(batched, one_by_one, "len {len}, density {density}%");
            }
        }
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffers() {
        let src = from_positions(&[0, 70, 600, 1399], 1400);
        let mut dst = from_positions(&[5], 1400);
        let words = dst.words.as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.words.as_ptr(), words, "clone_from reallocated");
        dst.check_consistent();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already set")]
    fn setting_a_set_bit_panics_in_debug() {
        let mut b = from_positions(&[5], 10);
        b.set(5);
    }

    #[test]
    fn words_spanned_counts() {
        assert_eq!(Bitmap::words_spanned(0, 0), 0);
        assert_eq!(Bitmap::words_spanned(0, 1), 1);
        assert_eq!(Bitmap::words_spanned(0, 64), 1);
        assert_eq!(Bitmap::words_spanned(0, 65), 2);
        assert_eq!(Bitmap::words_spanned(63, 65), 2);
        assert_eq!(Bitmap::words_spanned(64, 128), 1);
    }
}
