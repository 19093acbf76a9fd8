package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint reproducing Table VIII (+ Table VII header):
  * business-scale fraud lookalikes with SAFE on the distributed backend.
  * Scale rows with SAFE_BIZ_ROWS.
  */
object TableVIII {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("safe-table8")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      Tables.tableVII(println)
      println()
      Tables.tableVIII(spark, println)
      ()
    } finally spark.stop()
  }
}
