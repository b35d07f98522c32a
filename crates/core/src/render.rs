//! Qualitative output: greyscale slice renders.
//!
//! The paper's Figs. 2–3 show side-by-side volume renders of FCNN vs
//! classical reconstructions. Offline we emit z-slices as portable graymap
//! (PGM) images, viewable anywhere.

use fv_field::{FieldError, ScalarField};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Write the z-slice `plane` of a field as an 8-bit binary PGM image,
/// normalizing the *whole field's* range so multiple methods' slices share
/// one color scale.
pub fn write_slice_pgm<W: Write>(
    field: &ScalarField,
    plane: usize,
    w: W,
) -> Result<(), FieldError> {
    let [nx, ny, nz] = field.grid().dims();
    if plane >= nz {
        return Err(FieldError::Format(format!(
            "plane {plane} out of range (nz = {nz})"
        )));
    }
    let (lo, hi) = field.min_max().unwrap_or((0.0, 1.0));
    let scale = if hi > lo { 255.0 / (hi - lo) } else { 0.0 };
    let slice = field.slice_z(plane);
    let mut w = BufWriter::new(w);
    writeln!(w, "P5")?;
    writeln!(w, "{nx} {ny}")?;
    writeln!(w, "255")?;
    let bytes: Vec<u8> = slice
        .iter()
        .map(|&v| (((v - lo) * scale).clamp(0.0, 255.0)) as u8)
        .collect();
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Save a slice PGM to a file path.
pub fn save_slice_pgm(
    field: &ScalarField,
    plane: usize,
    path: impl AsRef<Path>,
) -> Result<(), FieldError> {
    write_slice_pgm(field, plane, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_field::Grid3;

    fn field() -> ScalarField {
        let g = Grid3::new([4, 3, 2]).unwrap();
        ScalarField::from_vec(g, (0..24).map(|v| v as f32).collect()).unwrap()
    }

    #[test]
    fn pgm_structure() {
        let f = field();
        let mut buf = Vec::new();
        write_slice_pgm(&f, 0, &mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf[..11]);
        assert!(text.starts_with("P5\n4 3\n255"));
        // 12 pixels follow the header
        let header_len = b"P5\n4 3\n255\n".len();
        assert_eq!(buf.len() - header_len, 12);
        // full-field normalization: value 23 (field max) is not in plane 0,
        // so plane 0's max pixel is below 255
        let pixels = &buf[header_len..];
        assert!(*pixels.iter().max().unwrap() < 255);
    }

    #[test]
    fn pgm_plane_bounds_checked() {
        let f = field();
        let mut buf = Vec::new();
        assert!(write_slice_pgm(&f, 5, &mut buf).is_err());
    }

    #[test]
    fn constant_field_pgm_is_black() {
        let g = Grid3::new([2, 2, 1]).unwrap();
        let f = ScalarField::filled(g, 7.0);
        let mut buf = Vec::new();
        write_slice_pgm(&f, 0, &mut buf).unwrap();
        let header_len = b"P5\n2 2\n255\n".len();
        assert!(buf[header_len..].iter().all(|&b| b == 0));
    }
}
