package repro.ml

import org.apache.spark.rdd.RDD

/** Where the rows of a statistic live: one driver matrix, or the column-major
  * row blocks of a Spark frame (`SparkRows.blocks`). Every statistic runs one
  * per-block kernel; this type only decides where it runs.
  *
  * A kernel comes in `parts`: part p of it writes only its own cells of the
  * sum and reads no cell another part writes (one part per column for IV,
  * one per row of the triangle for Pearson). So the parts of one matrix may
  * run at once, and each cell is still the chain of one part's additions in
  * row order on both placements.
  */
sealed trait Rows {

  /** Each matrix of rows replaced by `f` of it (on Spark, inside the task). */
  def map(f: LocalMatrix => LocalMatrix): Rows

  /** `add(acc, m, p)` for every part p in 0 until `parts`, folded over every
    * matrix m of rows into one array of `length` zeros: the driver's parts
    * on `Pool`, or one Spark job (see `Blocks.sum`).
    */
  def sum(length: Int, parts: Int)(add: (Array[Double], LocalMatrix, Int) => Unit): Array[Double]
}

object Rows {

  /** One driver matrix; its parts run on `Pool`, warmed up as the kernel `add`. */
  final case class Local(m: LocalMatrix) extends Rows {
    def map(f: LocalMatrix => LocalMatrix): Rows = Local(f(m))
    def sum(length: Int, parts: Int)(add: (Array[Double], LocalMatrix, Int) => Unit): Array[Double] = {
      val acc = new Array[Double](length)
      Pool.foreachOf(add, parts)(add(acc, m, _))
      acc
    }
  }

  final case class Blocks(blocks: RDD[LocalMatrix]) extends Rows {
    def map(f: LocalMatrix => LocalMatrix): Rows = Blocks(blocks.map(f))
    /** One Spark job through `SparkRows.sumPartitions`: each task runs the
      * parts of each of its blocks in order, on its own thread (never on
      * `Pool`), into a partial per partition; the partials are added on the
      * driver in partition order, so the same doubles from run to run,
      * which differ from the driver's single chain in the last bits.
      */
    def sum(length: Int, parts: Int)(add: (Array[Double], LocalMatrix, Int) => Unit): Array[Double] =
      SparkRows.sumPartitions(blocks, length) { (acc, b) =>
        var p = 0
        while (p < parts) { add(acc, b, p); p += 1 }
      }
  }
}
