//! Classical (Torgerson) Multidimensional Scaling.
//!
//! The paper (Section 6.1) projects the locations of the Topix news sources
//! onto a 2-D plane using Multidimensional Scaling of their pairwise
//! geographic distances, and all of the regional pattern mining then happens
//! in that plane. [`classical_mds`] reproduces that projection: given an
//! `n x n` matrix of pairwise distances it returns `n` planar points whose
//! Euclidean distances approximate the input distances as well as a rank-2
//! embedding can.

use crate::linalg::SymMatrix;
use crate::point::Point2D;
use std::fmt;

/// Errors returned by [`classical_mds`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdsError {
    /// The distance matrix is not square.
    NotSquare,
    /// The distance matrix contains a negative or non-finite entry.
    InvalidDistance {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
    },
}

impl fmt::Display for MdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdsError::NotSquare => write!(f, "distance matrix must be square"),
            MdsError::InvalidDistance { row, col } => {
                write!(
                    f,
                    "invalid distance at ({row}, {col}): must be finite and non-negative"
                )
            }
        }
    }
}

impl std::error::Error for MdsError {}

/// Projects points described by a pairwise distance matrix into the plane
/// using classical MDS.
///
/// Steps: square the distances, double-center (`B = -1/2 J D^2 J`), take the
/// two leading eigenpairs of `B`, and scale the eigenvectors by the square
/// roots of the (non-negative parts of the) eigenvalues.
///
/// The embedding is unique only up to rotation/reflection/translation, which
/// is irrelevant for burst-region mining: only relative proximity matters.
///
/// # Errors
///
/// Returns an error if the matrix is not square or contains negative or
/// non-finite entries.
///
/// # Examples
///
/// ```
/// use stb_geo::classical_mds;
/// // Three collinear points at 0, 1, 3 on a line.
/// let d = vec![
///     vec![0.0, 1.0, 3.0],
///     vec![1.0, 0.0, 2.0],
///     vec![3.0, 2.0, 0.0],
/// ];
/// let pts = classical_mds(&d).unwrap();
/// let d01 = pts[0].distance(&pts[1]);
/// let d12 = pts[1].distance(&pts[2]);
/// assert!((d01 - 1.0).abs() < 1e-6);
/// assert!((d12 - 2.0).abs() < 1e-6);
/// ```
pub fn classical_mds(distances: &[Vec<f64>]) -> Result<Vec<Point2D>, MdsError> {
    let n = distances.len();
    for (i, row) in distances.iter().enumerate() {
        if row.len() != n {
            return Err(MdsError::NotSquare);
        }
        for (j, &d) in row.iter().enumerate() {
            if !d.is_finite() || d < 0.0 {
                return Err(MdsError::InvalidDistance { row: i, col: j });
            }
        }
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        return Ok(vec![Point2D::new(0.0, 0.0)]);
    }

    // Squared distances, symmetrized.
    let mut sq = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            let d = (distances[i][j] + distances[j][i]) / 2.0;
            sq[i][j] = d * d;
        }
    }

    // Double centering: B = -1/2 * J * D^2 * J, J = I - 11^T / n.
    let row_means: Vec<f64> = sq
        .iter()
        .map(|r| r.iter().sum::<f64>() / n as f64)
        .collect();
    let grand_mean: f64 = row_means.iter().sum::<f64>() / n as f64;
    let mut b = SymMatrix::zeros(n);
    for i in 0..n {
        for j in i..n {
            let v = -0.5 * (sq[i][j] - row_means[i] - row_means[j] + grand_mean);
            b.set(i, j, v);
        }
    }

    let eig = b.eigen_jacobi();
    let mut coords = vec![Point2D::new(0.0, 0.0); n];
    for (k, coord_axis) in [0usize, 1usize].iter().enumerate() {
        if *coord_axis >= eig.values.len() {
            break;
        }
        let lambda = eig.values[*coord_axis].max(0.0);
        let scale = lambda.sqrt();
        for (i, c) in coords.iter_mut().enumerate() {
            let val = eig.vectors[*coord_axis][i] * scale;
            if k == 0 {
                c.x = val;
            } else {
                c.y = val;
            }
        }
    }
    Ok(coords)
}

/// Stress-1 goodness-of-fit of an embedding: the normalized root of the sum
/// of squared differences between the input distances and the embedded
/// Euclidean distances. Zero means a perfect fit; values below ~0.1 are
/// conventionally considered a good 2-D representation. Test oracle for
/// [`classical_mds`].
#[cfg(test)]
pub(crate) fn stress(distances: &[Vec<f64>], embedding: &[Point2D]) -> f64 {
    let n = distances.len();
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = distances[i][j];
            let e = embedding[i].distance(&embedding[j]);
            num += (d - e) * (d - e);
            den += d * d;
        }
    }
    if den == 0.0 {
        0.0
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haversine::pairwise_distance_matrix;
    use crate::point::GeoPoint;

    #[test]
    fn empty_and_singleton() {
        assert!(classical_mds(&[]).unwrap().is_empty());
        let one = classical_mds(&[vec![0.0]]).unwrap();
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn rejects_non_square() {
        let d = vec![vec![0.0, 1.0]];
        assert_eq!(classical_mds(&d), Err(MdsError::NotSquare));
    }

    #[test]
    fn rejects_negative_distance() {
        let d = vec![vec![0.0, -1.0], vec![-1.0, 0.0]];
        assert!(matches!(
            classical_mds(&d),
            Err(MdsError::InvalidDistance { .. })
        ));
    }

    #[test]
    fn recovers_planar_configuration() {
        // A 3-4-5 right triangle is exactly embeddable in 2-D.
        let d = vec![
            vec![0.0, 3.0, 5.0],
            vec![3.0, 0.0, 4.0],
            vec![5.0, 4.0, 0.0],
        ];
        let pts = classical_mds(&d).unwrap();
        assert!((pts[0].distance(&pts[1]) - 3.0).abs() < 1e-6);
        assert!((pts[1].distance(&pts[2]) - 4.0).abs() < 1e-6);
        assert!((pts[0].distance(&pts[2]) - 5.0).abs() < 1e-6);
        assert!(stress(&d, &pts) < 1e-6);
    }

    #[test]
    fn square_configuration() {
        let s2 = std::f64::consts::SQRT_2;
        let d = vec![
            vec![0.0, 1.0, s2, 1.0],
            vec![1.0, 0.0, 1.0, s2],
            vec![s2, 1.0, 0.0, 1.0],
            vec![1.0, s2, 1.0, 0.0],
        ];
        let pts = classical_mds(&d).unwrap();
        assert!(stress(&d, &pts) < 1e-6);
    }

    #[test]
    fn geographic_embedding_preserves_neighborhoods() {
        // European capitals should embed closer to each other than to
        // far-away cities.
        let pts_geo = vec![
            GeoPoint::new(48.85, 2.35),   // Paris
            GeoPoint::new(52.52, 13.40),  // Berlin
            GeoPoint::new(51.50, -0.12),  // London
            GeoPoint::new(-33.86, 151.2), // Sydney
            GeoPoint::new(35.68, 139.69), // Tokyo
        ];
        let d = pairwise_distance_matrix(&pts_geo);
        let emb = classical_mds(&d).unwrap();
        let paris_berlin = emb[0].distance(&emb[1]);
        let paris_sydney = emb[0].distance(&emb[3]);
        assert!(paris_berlin < paris_sydney);
        let s = stress(&d, &emb);
        assert!(s < 0.35, "stress too high: {s}");
    }

    #[test]
    fn stress_zero_for_identical() {
        let d = vec![vec![0.0, 2.0], vec![2.0, 0.0]];
        let pts = classical_mds(&d).unwrap();
        assert!(stress(&d, &pts) < 1e-9);
    }
}
