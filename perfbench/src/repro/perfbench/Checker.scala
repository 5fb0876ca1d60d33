package repro.perfbench

import repro.linalg.{Hit, VecOps}

/** Correctness gate for one query's top-k against the single-node
  * `IVFIndex.search` reference at the same nprobe.
  *
  * Distances are compared, not ids, so exact distance ties (DESIGN.md:
  * "modulo exact distance ties") are not errors; every returned distance
  * must also be the true distance of the returned id, so a wrong id cannot
  * hide behind a right distance.
  */
object Checker {
  /** Slices accumulate partial distances in a different order than a
    * full-vector pass, so sums may differ in the last bits. */
  val RelTol = 1e-9

  def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= RelTol * math.max(math.abs(a), math.abs(b)) + 1e-12

  /** Why `got` disagrees with `want`, or `None` when it agrees. */
  def check(q: Array[Float], got: Array[Hit], want: Array[Hit],
            vectorOf: Long => Array[Float]): Option[String] = {
    if (got.length != want.length) return Some(s"${got.length} hits, expected ${want.length}")
    if (got.map(_.id).distinct.length != got.length) return Some("duplicate ids")
    got.find(h => !close(h.dist, VecOps.l2(q, vectorOf(h.id)))).foreach { h =>
      return Some(s"id ${h.id} reported at ${h.dist}, true distance ${VecOps.l2(q, vectorOf(h.id))}")
    }
    val g = got.map(_.dist).sorted
    val w = want.map(_.dist).sorted
    g.indices.find(i => !close(g(i), w(i))).map(i =>
      s"rank $i distance ${g(i)}, reference ${w(i)}")
  }

  /** The wrong queries of one batch, by position, with the reason. A query
    * without a hit list is wrong, and so is every hit list beyond the
    * batch's queries (reported at its own position). */
  def checkBatch(queries: Array[Array[Float]], got: Array[Array[Hit]], want: Int => Array[Hit],
                 vectorOf: Long => Array[Float]): Seq[(Int, String)] =
    (0 until math.max(queries.length, got.length)).flatMap { i =>
      if (i >= got.length) Some(i -> s"no hit list for query $i of ${queries.length}")
      else if (i >= queries.length)
        Some(i -> s"hit list $i for a batch of ${queries.length} queries")
      else check(queries(i), got(i), want(i), vectorOf).map(i -> _)
    }
}
