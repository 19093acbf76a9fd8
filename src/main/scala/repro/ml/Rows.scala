package repro.ml

import org.apache.spark.rdd.RDD

/** Where the rows of a statistic live: one driver matrix, or the column-major
  * row blocks of a Spark frame (`SparkRows.blocks`). Every statistic runs one
  * per-block kernel; this type only decides where it runs.
  */
sealed trait Rows {

  /** Each matrix of rows replaced by `f` of it (on Spark, inside the task). */
  def map(f: LocalMatrix => LocalMatrix): Rows

  /** `add` folded over every matrix of rows into one array of `length`
    * zeros: one call on the driver, or one Spark job (see `Blocks.sum`).
    */
  def sum(length: Int)(add: (Array[Double], LocalMatrix) => Unit): Array[Double]
}

object Rows {

  final case class Local(m: LocalMatrix) extends Rows {
    def map(f: LocalMatrix => LocalMatrix): Rows = Local(f(m))
    def sum(length: Int)(add: (Array[Double], LocalMatrix) => Unit): Array[Double] = {
      val acc = new Array[Double](length)
      add(acc, m)
      acc
    }
  }

  final case class Blocks(blocks: RDD[LocalMatrix]) extends Rows {
    def map(f: LocalMatrix => LocalMatrix): Rows = Blocks(blocks.map(f))
    /** One Spark job through `SparkRows.sumPartitions`: a partial per
      * partition, added on the driver in partition order, so the same doubles
      * from run to run, which differ from the driver's single chain in the
      * last bits.
      */
    def sum(length: Int)(add: (Array[Double], LocalMatrix) => Unit): Array[Double] =
      SparkRows.sumPartitions(blocks, length)(add)
  }
}
