# Writes the build stamp OUTPUT (crowdrank/version.hpp) from TEMPLATE with
# the current `git describe --always --dirty --tags` of SOURCE_DIR. It runs
# once at configure time and again as a build step before every build of
# crowdrank_util, so a reused build tree stamps the commit it actually
# compiles. configure_file leaves
# OUTPUT untouched when its text would not change, so build_info.cpp
# recompiles only when the revision moves.
#
#   cmake -DSOURCE_DIR=... -DTEMPLATE=... -DOUTPUT=... -DGIT_EXECUTABLE=...
#         -DPROJECT_VERSION=... -DCMAKE_CXX_COMPILER_ID=...
#         -DCMAKE_CXX_COMPILER_VERSION=... -DCMAKE_BUILD_TYPE=...
#         -P cmake/write_version.cmake
set(CROWDRANK_GIT_DESCRIBE "unknown")
if(GIT_EXECUTABLE)
  execute_process(
    COMMAND ${GIT_EXECUTABLE} describe --always --dirty --tags
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE git_output
    OUTPUT_STRIP_TRAILING_WHITESPACE
    RESULT_VARIABLE git_result
    ERROR_QUIET)
  if(git_result EQUAL 0 AND NOT git_output STREQUAL "")
    set(CROWDRANK_GIT_DESCRIBE ${git_output})
  endif()
endif()
configure_file(${TEMPLATE} ${OUTPUT} @ONLY)
