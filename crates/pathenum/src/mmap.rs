//! Read-only memory mapping with a read-to-heap fallback.
//!
//! The build environment has no `libc` or `memmap` crate, but `std`
//! already links the platform C library, so on 64-bit Unix we declare
//! the two symbols we need (`mmap`/`munmap`) directly — the same
//! technique `phe-service` uses for `signal(2)`. Everywhere else (or
//! when the kernel refuses the mapping) the file is read into an
//! ordinary heap buffer, so callers never observe a platform
//! difference beyond [`MappedRegion::is_mapped`]. Under Miri, which
//! cannot interpret the foreign `mmap` call, every file takes the heap
//! path, so `.phc` parsing runs under the interpreter too.
//!
//! # Safety rules
//!
//! A mapped file must stay unmodified for the lifetime of the mapping:
//! truncating it delivers `SIGBUS` on the next touched page. Catalog
//! files uphold this by being **immutable once written** — writers emit
//! to a temporary path and `rename(2)` into place, and readers validate
//! a checksum at open, so a region handed out by this module is backed
//! by a file nobody rewrites in place.

use std::fs::File;
use std::io::{self, Read};

#[cfg(all(unix, target_pointer_width = "64", not(miri)))]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    // Prototypes for the C library symbols `std` already links; values
    // below are the Linux/macOS ABI constants for the flags we pass.
    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A live read-only `mmap(2)` region; unmapped on drop.
    pub(super) struct Map {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the region is read-only (PROT_READ, never remapped) and
    // owned until drop: moving the pointer to another thread is no
    // different from moving a `Vec<u8>`.
    unsafe impl Send for Map {}
    // SAFETY: all access goes through `&self -> &[u8]`; concurrent reads
    // of an immutable MAP_PRIVATE region are race-free.
    unsafe impl Sync for Map {}

    impl Map {
        pub(super) fn new(file: &File, len: usize) -> io::Result<Map> {
            debug_assert!(len > 0, "zero-length mappings are refused by the kernel");
            // SAFETY: plain FFI call with a null hint address; `fd` is a
            // live descriptor borrowed from `file` and the kernel
            // validates `len`/`offset`, reporting failure as MAP_FAILED
            // (checked below) rather than UB.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Map { ptr, len })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` maps exactly `len` readable bytes until drop,
            // and the backing file is immutable (module safety rules).
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` came from a successful `mmap` and are
            // unmapped exactly once.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

enum Region {
    #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
    Mapped(sys::Map),
    Heap(Vec<u8>),
}

/// The contents of one file, memory-mapped when the platform allows it
/// and read into a heap buffer otherwise. Either way [`as_slice`] is
/// the whole file.
///
/// [`as_slice`]: MappedRegion::as_slice
pub struct MappedRegion(Region);

impl MappedRegion {
    /// Maps `file` read-only, falling back to reading it into memory
    /// (empty files, unsupported platforms, or a kernel that refuses
    /// the mapping). Errors only if the fallback read itself fails.
    pub fn map_file(file: &mut File) -> io::Result<MappedRegion> {
        #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
        {
            let len = file.metadata()?.len();
            if len > 0 {
                if let Ok(map) = sys::Map::new(file, len as usize) {
                    return Ok(MappedRegion(Region::Mapped(map)));
                }
            }
        }
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        Ok(MappedRegion(Region::Heap(buf)))
    }

    /// The file's bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
            Region::Mapped(map) => map.as_slice(),
            Region::Heap(buf) => buf,
        }
    }

    /// Whether the bytes are disk-resident (a real mapping) rather than
    /// a heap copy.
    pub fn is_mapped(&self) -> bool {
        match &self.0 {
            #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
            Region::Mapped(_) => true,
            Region::Heap(_) => false,
        }
    }

    /// Length of the file in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the file was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for MappedRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedRegion")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("phe-mmap-test-{}-{name}", std::process::id()));
        path
    }

    #[test]
    fn maps_a_file_and_reads_it_back() {
        let path = temp_path("basic");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|v| v.to_le_bytes()).collect();
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&payload)
            .unwrap();
        let mut file = File::open(&path).unwrap();
        let region = MappedRegion::map_file(&mut file).unwrap();
        assert_eq!(region.as_slice(), &payload[..]);
        assert_eq!(region.len(), payload.len());
        #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
        assert!(region.is_mapped(), "64-bit unix should really map");
        drop(region); // must unmap cleanly
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_falls_back_to_heap() {
        let path = temp_path("empty");
        std::fs::File::create(&path).unwrap();
        let mut file = File::open(&path).unwrap();
        let region = MappedRegion::map_file(&mut file).unwrap();
        assert!(region.is_empty());
        assert!(!region.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }
}
