"""Build file of the benchmark: compiles the program's sources (src/main/scala)
and the benchmark's own (perfbench/src) with the Scala compiler that ships in
the Spark distribution, into .bench_build/perfbench/classes.

Usage, from the repository root:  python3 perfbench/build.py

Nothing is fetched: the compiler, the Scala library and Spark all come from
$SPARK_HOME/jars (default /opt/spark/jars), the jars build.sbt compiles
against. Classes are rebuilt only when a source file changed.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
BENCH_SOURCES = ROOT / "perfbench" / "src"
OUT = ROOT / ".bench_build" / "perfbench"
CLASSES = OUT / "classes"


def spark_jars() -> Path:
    jars = Path(os.environ.get("SPARK_HOME", "/opt/spark")) / "jars"
    if not any(jars.glob("scala-compiler-*.jar")):
        raise SystemExit(f"perfbench: no Scala compiler in {jars}; set SPARK_HOME")
    return jars


def classpath() -> str:
    return f"{CLASSES}{os.pathsep}{spark_jars()}/*"


def build() -> str:
    """Compiles if needed; returns the classpath to run perfbench.Main with."""
    if not PROGRAM_SOURCES.is_dir():
        raise SystemExit(f"perfbench: program sources {PROGRAM_SOURCES} not found")
    files = sorted(p for d in (PROGRAM_SOURCES, BENCH_SOURCES) for p in d.rglob("*.scala"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    stamp = OUT / "stamp"
    if stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return classpath()
    shutil.rmtree(CLASSES, ignore_errors=True)
    CLASSES.mkdir(parents=True)
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    jars = spark_jars()
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-classpath", f"{jars}/*", "-nowarn", "-d", str(CLASSES)] + [str(f) for f in files]
    # compiler output goes to stderr: stdout carries only the benchmark's result
    if subprocess.run(cmd, stdout=sys.stderr, timeout=600).returncode != 0:
        raise SystemExit("perfbench: compilation failed")
    stamp.write_text(digest.hexdigest())
    return classpath()


if __name__ == "__main__":
    build()
