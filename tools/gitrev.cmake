# Stamp the current git revision and the build type into a generated
# header. Runs at build time (custom target), so the rev tracks HEAD
# without reconfiguring; writes only when the content changes to avoid
# spurious rebuilds.
#
# Inputs: -DGIT_DIR=<repo root> -DBUILD_TYPE=<CMAKE_BUILD_TYPE>
#         -DOUT=<header path>

execute_process(
    COMMAND git -C "${GIT_DIR}" rev-parse --short HEAD
    OUTPUT_VARIABLE rev
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR rev STREQUAL "")
    set(rev "unknown")
endif()

execute_process(
    COMMAND git -C "${GIT_DIR}" status --porcelain
    OUTPUT_VARIABLE dirty
    ERROR_QUIET)
if(NOT dirty STREQUAL "")
    set(rev "${rev}-dirty")
endif()

if(NOT BUILD_TYPE)
    set(BUILD_TYPE "unknown")
endif()

set(content "#define TAKO_GIT_REV \"${rev}\"\n")
string(APPEND content "#define TAKO_BUILD_TYPE \"${BUILD_TYPE}\"\n")

if(EXISTS "${OUT}")
    file(READ "${OUT}" old)
else()
    set(old "")
endif()

if(NOT content STREQUAL old)
    file(WRITE "${OUT}" "${content}")
endif()
