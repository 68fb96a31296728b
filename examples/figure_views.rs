//! Render the paper's Figure 1 (the three views of the embedding) and
//! Figure 2/4 mechanics (buffering, deadweight, incorporation) live on a
//! small instance, so you can watch the slot taxonomy evolve.
//!
//! Legend: `F` occupied F-slot · `f` free F-slot · `B` buffered element ·
//! `b` buffer dummy · `.` R-empty slot.
//!
//! (This example deliberately stays on the paper-level API — the views
//! render the concrete `Embed` type's internals, which the production
//! `lll-api` layer intentionally erases.)
//!
//! Run with: `cargo run --example figure_views`

use layered_list_labeling::adaptive::AdaptiveBuilder;
use layered_list_labeling::classic::ClassicBuilder;
use layered_list_labeling::core::ids::ElemId;
use layered_list_labeling::core::traits::{LabelingBuilder, ListLabeling};
use layered_list_labeling::embedding::views::{embedding_view, figure1};
use layered_list_labeling::embedding::EmbedBuilder;

fn main() {
    let n = 24;
    let b = EmbedBuilder::new(AdaptiveBuilder, ClassicBuilder);
    let mut e = b.build_default(n);

    println!("empty embedding (Figure 1's three views):\n{}", figure1(&e));

    // Fill half the capacity at the front (hammer) — cheap ops take the
    // fast path; expensive simulated ops buffer in the R-shell.
    for i in 0..n / 2 {
        e.insert(0, ElemId(i as u32));
        if [1, 4, 8, n / 2 - 1].contains(&i) {
            println!("after {} head-inserts:", i + 1);
            println!("{}", figure1(&e));
            if e.rebuild_pending() {
                println!("  (rebuild pending: {} buffered)\n", e.buffered());
            }
        }
    }

    let s = e.stats();
    println!(
        "stats so far: fast={} slow={} rebuilds={} max-deadweight={}",
        s.fast_ops, s.slow_ops, s.rebuilds_completed, s.max_deadweight
    );

    // Deletions leave ghosts in the F-emulator until it catches up.
    for _ in 0..4 {
        e.delete(0);
    }
    println!("\nafter 4 deletions:\n{}", figure1(&e));

    // Buffered-element view: slot counts are conserved forever.
    let tags = e.tag_array();
    println!(
        "slot census: {} F-slots, {} buffer slots ({} real, {} dummy), {} white",
        tags.f_count(),
        tags.buf_count(),
        tags.buffered_real_count(),
        tags.buf_dummy_count(),
        e.num_slots() - tags.f_count() - tags.buf_count(),
    );
    let v = embedding_view(&e);
    assert_eq!(v.chars().filter(|&c| c == 'F' || c == 'f').count(), tags.f_count());
    println!("\nviews consistent with the slot census ✓");
}
