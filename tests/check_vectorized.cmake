# Build-time vectorization guard, run as a ctest through `cmake -P`.
#
# Recompiles SOURCE with the exact command the build uses for it (read from
# the compilation database) plus -fopt-info-vec-optimized, and fails unless
# every loop marked with a trailing `// vector loop` comment is reported
# "loop vectorized using 32 byte vectors" (4 doubles per AVX2 lane). A loop
# that silently falls back to scalar code still computes the right bits, so
# no numeric test can notice it; this check does.
#
# Prints "SKIP:" (the ctest's SKIP_REGULAR_EXPRESSION) where the check means
# nothing: a compiler other than GCC (the -fopt-info format is GCC's), a
# build without HSPEC_SIMD (baseline x86-64 has no 32-byte vectors), or
# flags that do not run the vectorizer (below -O2, or -Os; the sanitizer
# builds use -O1).
#
# Variables: COMPILER_ID, SIMD, COMPILE_COMMANDS, SOURCE, LOOPS (how many
# marked loops the source must hold), OUT (object file to write).

cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT COMPILER_ID STREQUAL "GNU")
  message(STATUS "SKIP: compiler is ${COMPILER_ID}, not GCC")
  return()
endif()
if(NOT SIMD)
  message(STATUS "SKIP: HSPEC_SIMD is off, the batch loops have no AVX2 target")
  return()
endif()

file(READ "${COMPILE_COMMANDS}" db)
string(JSON n LENGTH "${db}")
math(EXPR last "${n} - 1")
set(command "")
foreach(i RANGE ${last})
  string(JSON file GET "${db}" ${i} file)
  if(file STREQUAL SOURCE)
    string(JSON command GET "${db}" ${i} command)
    string(JSON directory GET "${db}" ${i} directory)
    break()
  endif()
endforeach()
if(command STREQUAL "")
  message(FATAL_ERROR "${SOURCE} is not in ${COMPILE_COMMANDS}")
endif()

separate_arguments(args UNIX_COMMAND "${command}")
# Drop the build's own output file; the last -O flag is the one in effect.
set(cmd "")
set(opt "")
set(skip_next FALSE)
foreach(a IN LISTS args)
  if(skip_next)
    set(skip_next FALSE)
  elseif(a STREQUAL "-o")
    set(skip_next TRUE)
  else()
    list(APPEND cmd "${a}")
    if(a MATCHES "^-O")
      set(opt "${a}")
    endif()
  endif()
endforeach()
if(opt STREQUAL "")
  message(STATUS "SKIP: no -O flag, the vectorizer does not run")
  return()
elseif(opt MATCHES "^-O(0|1|g|s|z)?$")
  message(STATUS "SKIP: ${opt} does not run the vectorizer")
  return()
endif()

execute_process(
  COMMAND ${cmd} -fopt-info-vec-optimized -o "${OUT}"
  WORKING_DIRECTORY "${directory}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE report
  ERROR_VARIABLE report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "compiling ${SOURCE} failed (${rc}):\n${report}")
endif()

# Line numbers of the marked loops: count the newlines before each marker.
file(READ "${SOURCE}" text)
get_filename_component(name "${SOURCE}" NAME)
string(REPLACE "." "\\." name_re "${name}")
set(marker "// vector loop\n")
string(LENGTH "${marker}" marker_length)
set(found 0)
set(missed "")
set(rest "${text}")
set(offset 1)
while(TRUE)
  string(FIND "${rest}" "${marker}" at)
  if(at EQUAL -1)
    break()
  endif()
  string(SUBSTRING "${rest}" 0 ${at} before)
  string(REGEX MATCHALL "\n" newlines "${before}")
  list(LENGTH newlines k)
  math(EXPR line "${offset} + ${k}")
  math(EXPR found "${found} + 1")
  if(NOT report MATCHES
      "${name_re}:${line}:[0-9]+: optimized: loop vectorized using 32 byte vectors")
    list(APPEND missed ${line})
  endif()
  # Continue after the marker, which ends its line.
  math(EXPR next "${at} + ${marker_length}")
  string(SUBSTRING "${rest}" ${next} -1 rest)
  math(EXPR offset "${line} + 1")
endwhile()

if(NOT found EQUAL LOOPS)
  message(FATAL_ERROR
    "${name} has ${found} loops marked '// vector loop', expected ${LOOPS}")
endif()
if(missed)
  message(FATAL_ERROR
    "${name}: marked loop(s) at line(s) ${missed} not vectorized with 32-byte "
    "vectors. -fopt-info-vec-optimized reported:\n${report}")
endif()
message(STATUS "PASS: ${found} marked loops in ${name} vectorized using "
  "32 byte vectors (${opt})")
