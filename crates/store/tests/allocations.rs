//! Allocation guard of the streaming ingest path. A counting global
//! allocator counts the heap allocations (and reallocations) made by the
//! thread that runs each test: loading a document must cost a handful of
//! allocations, not several per node, and the tokenizer must not allocate
//! per event.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use natix_store::{stream_bulkload, MemPager, StoreConfig, StreamLoader};
use natix_xml::{parse_sax, ParseOptions, SaxHandler};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Not during thread teardown, when the counter may be gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` returns, and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The shard loader's per-document call over the first 512 small
/// documents, appended to one store: at most 1.5 allocations a node, all
/// the store's own work (pages, directory) included.
#[test]
fn appending_small_documents_allocates_per_document_not_per_node() {
    let docs: Vec<String> = natix_datagen::small_docs(512, 0x004e_4154_4958).collect();
    let config = StoreConfig {
        record_limit_slots: 256,
        ..StoreConfig::default()
    };
    let (mut store, _) =
        stream_bulkload("<natix-shard/>", 0, Box::new(MemPager::new()), config).expect("shard");
    let mut loader = StreamLoader::new(8);
    let mut nodes = 0;
    let ((), allocs) = allocations(|| {
        for xml in &docs {
            // The documents hang off no segment: only the load is counted.
            let (_, stats) = loader
                .append_document(&mut store, xml, (u32::MAX, u16::MAX, u16::MAX))
                .expect("append");
            nodes += stats.nodes;
        }
    });
    let per_node = allocs as f64 / nodes as f64;
    assert!(
        per_node <= 1.5,
        "{allocs} allocations for {nodes} nodes: {per_node:.3} a node"
    );
}

struct Null;

impl SaxHandler for Null {
    type Error = std::convert::Infallible;

    fn start_element(&mut self, _: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn attribute(&mut self, _: &str, _: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn text(&mut self, _: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn comment(&mut self, _: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn processing_instruction(&mut self, _: &str, _: &str) -> Result<(), Self::Error> {
        Ok(())
    }
    fn end_element(&mut self) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// `depth` nested `<e>`s, each holding `width` leaves with an attribute,
/// text, a comment and a processing instruction, and no entity
/// reference.
fn nested(depth: usize, width: usize) -> String {
    let leaves = "<l k=\"v\">text<!--c--><?p d?></l>".repeat(width);
    let mut xml = String::new();
    for _ in 0..depth {
        xml.push_str("<e a=\"1\">");
        xml.push_str(&leaves);
    }
    xml.push_str(&"</e>".repeat(depth));
    xml
}

/// A no-op SAX pass over an entity-free document allocates at most once
/// per nesting level (its open-tag stack), whatever the number of events.
#[test]
fn sax_pass_allocates_per_nesting_level_not_per_event() {
    const DEPTH: usize = 8;
    let counts: Vec<u64> = [1, 100]
        .iter()
        .map(|&width| {
            let xml = nested(DEPTH, width);
            let (parsed, allocs) =
                allocations(|| parse_sax(&xml, ParseOptions::default(), &mut Null));
            parsed.expect("well-formed");
            allocs
        })
        .collect();
    assert!(counts[0] <= DEPTH as u64 + 1, "{counts:?}");
    assert_eq!(counts[0], counts[1], "a wider document allocated more");
}
