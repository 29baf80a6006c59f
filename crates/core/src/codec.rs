//! Bounds-checked little-endian decoding for the crate's state blobs
//! (streaming checkpoints, scheduler state). Every read is checked
//! against the bytes that remain, so arbitrary input yields `Err` —
//! never an overflow panic, and never an allocation larger than the
//! input.

/// A cursor over an encoded blob.
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
    truncated: &'static str,
}

impl<'a> Reader<'a> {
    /// Reads `bytes`; `truncated` is the error for input that ends early.
    pub(crate) fn new(bytes: &'a [u8], truncated: &'static str) -> Self {
        Reader {
            rest: bytes,
            truncated,
        }
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.rest.len() {
            return Err(self.truncated.to_string());
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` length followed by that many bytes.
    pub(crate) fn blob(&mut self) -> Result<&'a [u8], String> {
        let n = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        self.take(n)
    }

    /// A `u32` count followed by that many `elem_bytes`-wide elements,
    /// each decoded by `read`. The capacity reserved up front is capped
    /// by the bytes that remain, whatever the count claims.
    pub(crate) fn seq<T>(
        &mut self,
        elem_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(self.rest.len() / elem_bytes.max(1)));
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_lengths_are_truncation_errors() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(Reader::new(&bytes, "short").blob().is_err());
        let bytes = u32::MAX.to_le_bytes();
        assert_eq!(
            Reader::new(&bytes, "short").seq(4, Reader::u32),
            Err("short".to_string())
        );
    }

    #[test]
    fn reads_advance_through_the_input() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&1.5f32.to_le_bytes());
        bytes.extend_from_slice(&2.5f32.to_le_bytes());
        let mut r = Reader::new(&bytes, "short");
        assert_eq!(r.u8(), Ok(7));
        let floats = r.seq(4, |r| r.u32().map(f32::from_bits));
        assert_eq!(floats, Ok(vec![1.5, 2.5]));
        assert!(r.u8().is_err());
    }
}
